package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// byteCounter counts the bytes a connection sends and receives. It is
// read only between phases, when no request is in flight.
type byteCounter struct {
	sent, recv atomic.Int64
}

func (b *byteCounter) total() int64 { return b.sent.Load() + b.recv.Load() }

// countConn is a net.Conn that adds its traffic to a byteCounter. The
// client's connections and the coordinator's dials to its shards go
// through it; it costs two atomic adds per read or write, so it stays on
// in untraced runs.
type countConn struct {
	net.Conn
	c *byteCounter
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.recv.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.sent.Add(int64(n))
	return n, err
}

// frameScanner follows the wire protocol's framing (4-byte big-endian
// length of type byte plus payload, then the type byte) over a byte
// stream, so a connection wrapper can tell when a frame is complete
// without buffering it.
type frameScanner struct {
	hdr  [5]byte
	got  int // header bytes seen for the current frame
	need int // payload bytes still missing once the header is complete
	typ  byte
}

// feed consumes b and reports whether a frame ended inside it.
func (f *frameScanner) feed(b []byte) (done bool) {
	for len(b) > 0 {
		if f.got < len(f.hdr) {
			n := copy(f.hdr[f.got:], b)
			f.got += n
			b = b[n:]
			if f.got < len(f.hdr) {
				continue
			}
			f.typ = f.hdr[4]
			f.need = int(binary.BigEndian.Uint32(f.hdr[:4])) - 1
		} else {
			n := min(len(b), f.need)
			f.need -= n
			b = b[n:]
		}
		if f.need <= 0 {
			done = true
			f.got, f.need = 0, 0
		}
	}
	return done
}

// serviceSpan is one request as the server saw it: from the moment its
// frame was fully read to the moment the write completing its response
// frame was issued.
type serviceSpan struct {
	cmd        byte
	start, end time.Time
}

func (s serviceSpan) dur() time.Duration { return s.end.Sub(s.start) }

// serviceListener wraps the listener a Server serves on. While on is
// set, every accepted connection logs one serviceSpan per request, keyed
// by the peer's address so the benchmark can pair the spans with its
// own client calls. Switching on happens between phases, when every
// connection sits at a frame boundary.
type serviceListener struct {
	net.Listener
	on *atomic.Bool

	mu   sync.Mutex
	logs map[string]*serviceLog
}

func newServiceListener(l net.Listener, on *atomic.Bool) *serviceListener {
	return &serviceListener{Listener: l, on: on, logs: map[string]*serviceLog{}}
}

func (l *serviceListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	log := &serviceLog{}
	l.mu.Lock()
	l.logs[c.RemoteAddr().String()] = log
	l.mu.Unlock()
	return &serviceConn{Conn: c, on: l.on, log: log}, nil
}

// spans returns the spans logged for the peer at addr since the last
// reset, in request order.
func (l *serviceListener) spans(addr string) []serviceSpan {
	l.mu.Lock()
	log := l.logs[addr]
	l.mu.Unlock()
	if log == nil {
		return nil
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	return append([]serviceSpan(nil), log.spans...)
}

// all returns every connection's spans.
func (l *serviceListener) all() [][]serviceSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [][]serviceSpan
	for _, log := range l.logs {
		log.mu.Lock()
		out = append(out, append([]serviceSpan(nil), log.spans...))
		log.mu.Unlock()
	}
	return out
}

// count returns the number of spans logged across all connections.
func (l *serviceListener) count() int {
	n := 0
	for _, s := range l.all() {
		n += len(s)
	}
	return n
}

func (l *serviceListener) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, log := range l.logs {
		log.mu.Lock()
		log.spans = nil
		log.mu.Unlock()
	}
}

type serviceLog struct {
	mu    sync.Mutex
	spans []serviceSpan
}

// serviceConn is the server side of one traced connection. The server
// reads and writes it from one goroutine, so only the log is locked.
type serviceConn struct {
	net.Conn
	on      *atomic.Bool
	log     *serviceLog
	in, out frameScanner
	cmd     byte
	start   time.Time
}

func (c *serviceConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.on.Load() && c.in.feed(p[:n]) {
		c.start, c.cmd = time.Now(), c.in.typ
	}
	return n, err
}

func (c *serviceConn) Write(p []byte) (int, error) {
	if !c.on.Load() {
		return c.Conn.Write(p)
	}
	// The span ends just before the write that completes the response:
	// the client cannot have read it earlier, so a span always lies
	// inside its client round trip.
	var end time.Time
	if peek := c.out; peek.feed(p) && !c.start.IsZero() {
		end = time.Now()
	}
	n, err := c.Conn.Write(p)
	c.out.feed(p[:n])
	if !end.IsZero() && n == len(p) {
		c.log.mu.Lock()
		c.log.spans = append(c.log.spans, serviceSpan{cmd: c.cmd, start: c.start, end: end})
		c.log.mu.Unlock()
		c.start = time.Time{}
	}
	return n, err
}
