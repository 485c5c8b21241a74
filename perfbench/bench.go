package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/authindex"
	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/scanshare"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/workload"
)

const (
	conns         = 2 // closed-loop connections, one goroutine each (= nproc)
	defaultSetups = 3 // set-ups per run; setup_s is their median
	numShards     = 2
)

// shardMap is the sharded workload's partition map, shared by the
// coordinator and the clients as phserver's -shard-map-version 1 would be.
var shardMap = shard.Map{Version: 1, Count: numShards}

// config is one benchmark run.
type config struct {
	spec    spec
	seed    int64
	seconds time.Duration
	trace   bool
	setups  int
	dir     string // scratch directory for write-ahead logs
	// rows and params, when set, shrink the workload (smoke tests).
	rows   int
	params mixParams
	// tamper, when set, may alter a timed read's decrypted answer before
	// the oracle sees it (failure-accounting tests).
	tamper func(*relation.Table)
}

// node is one in-process server on a loopback port.
type node struct {
	srv   *server.Server
	store *storage.Store // nil for the coordinator
	addr  string
	trace *serviceListener // nil in untraced runs
	done  chan error
}

func startNode(srv *server.Server, store *storage.Store, traceOn *atomic.Bool) (*node, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{srv: srv, store: store, addr: l.Addr().String(), done: make(chan error, 1)}
	var ln net.Listener = l
	if traceOn != nil {
		n.trace = newServiceListener(l, traceOn)
		ln = n.trace
	}
	go func() { n.done <- srv.Serve(ln) }()
	return n, nil
}

func (n *node) close() error {
	err := n.srv.Close()
	if serr := <-n.done; serr != nil && err == nil {
		err = serr
	}
	if n.store != nil {
		if cerr := n.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// worker is one closed-loop connection and everything it owns.
type worker struct {
	table  string
	conn   *client.Conn
	local  string // the connection's local address, as the server sees its peer
	bytes  *byteCounter
	db     *client.DB
	scheme *core.PH // the traced path's own instance, same key as db's
	remote *shard.Remote
	oracle *oracle
	mix    mixer
	// The traced path keeps its own copy of the pinned anchor: one pin
	// per shard (a single server is one shard), and the Merkle frontier
	// behind a single server's pin, which its inserts advance.
	anchor   []pin
	frontier *authindex.Frontier
	verified bool
	tamper   func(*relation.Table)
}

// env is one set-up: servers, stores, connections and workers.
type env struct {
	spec       spec
	nodes      []*node // closed in reverse order
	front      *node   // the node clients talk to
	shards     []*node
	stores     []*storage.Store
	coord      *shard.Coordinator
	shardBytes *byteCounter
	workers    []*worker
	traceOn    *atomic.Bool
}

func (e *env) close() error {
	var errs []error
	for _, w := range e.workers {
		w.conn.Close()
	}
	if e.coord != nil {
		errs = append(errs, e.coord.Close())
	}
	for i := len(e.nodes) - 1; i >= 0; i-- {
		errs = append(errs, e.nodes[i].close())
	}
	return errors.Join(errs...)
}

// data is a run's plaintext input: the tables (one per connection for
// ownTables workloads), generated once from the seed.
type data struct {
	tables []*relation.Table
}

func prepare(cfg config) (*data, error) {
	rows := cfg.spec.rows
	if cfg.rows > 0 {
		rows = cfg.rows
	}
	n := 1
	if cfg.spec.ownTables {
		n = conns
	}
	d := &data{}
	for i := 0; i < n; i++ {
		t, err := employees(rows, cfg.seed*1_000_003+int64(i))
		if err != nil {
			return nil, err
		}
		d.tables = append(d.tables, t)
	}
	return d, nil
}

func (d *data) table(conn int) *relation.Table { return d.tables[conn%len(d.tables)] }

func tableName(spec spec, conn int) string {
	if spec.ownTables {
		return fmt.Sprintf("emp%d", conn)
	}
	return "emp"
}

// masterKey derives the run's master key from the workload seed, so the
// same seed encrypts the same predicates to the same trapdoors.
func masterKey(seed int64) crypto.Key {
	return crypto.KeyFromBytes([]byte(fmt.Sprintf("perfbench master key, seed %d", seed)))
}

func (cfg config) mixParams() mixParams {
	if cfg.params.preds > 0 {
		return cfg.params
	}
	return mixParams{preds: 256, coldWarm: 8}
}

// setUp starts the servers, encrypts and uploads the tables, and warms
// them up. It returns the env and the time the system took: server
// start, encryption, upload and warm-up, but not plaintext generation.
func setUp(cfg config, d *data, idx int) (*env, time.Duration, error) {
	e := &env{spec: cfg.spec}
	if cfg.trace {
		e.traceOn = &atomic.Bool{}
	}
	// The mixes and oracles are the benchmark's own state: build them
	// before the clock starts.
	mixes := make([]mixer, conns)
	oracles := make([]*oracle, len(d.tables))
	for i := range d.tables {
		oracles[i] = newOracle(d.tables[i])
	}
	for i := range mixes {
		m, err := cfg.spec.mix(d.table(i), cfg.mixParams(), cfg.seed, i)
		if err != nil {
			return nil, 0, err
		}
		mixes[i] = m
	}

	start := time.Now()
	if err := e.startServers(cfg, idx); err != nil {
		e.close()
		return nil, 0, err
	}
	for i := 0; i < conns; i++ {
		w, err := e.connect(cfg, i)
		if err != nil {
			e.close()
			return nil, 0, err
		}
		w.oracle = oracles[i%len(oracles)]
		w.mix = mixes[i]
		w.tamper = cfg.tamper
		e.workers = append(e.workers, w)
	}
	if err := e.upload(d); err != nil {
		e.close()
		return nil, 0, err
	}
	if err := e.warm(); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, time.Since(start), nil
}

func (e *env) startServers(cfg config, idx int) error {
	newStore := func() (*storage.Store, error) {
		if e.spec.topo != durable {
			return storage.NewMemory(), nil
		}
		path := filepath.Join(cfg.dir, fmt.Sprintf("setup%d.log", idx))
		return storage.OpenOptions(path, storage.Options{Sync: storage.SyncAlways})
	}
	serve := func() (*node, error) {
		st, err := newStore()
		if err != nil {
			return nil, err
		}
		n, err := startNode(server.NewWithOptions(st, nil, server.Options{}), st, e.traceOn)
		if err != nil {
			st.Close()
			return nil, err
		}
		e.nodes = append(e.nodes, n)
		e.stores = append(e.stores, st)
		return n, nil
	}
	if e.spec.topo != sharded {
		n, err := serve()
		e.front = n
		return err
	}
	sc := &client.ShardsConfig{Version: shardMap.Version}
	for i := 0; i < numShards; i++ {
		n, err := serve()
		if err != nil {
			return err
		}
		e.shards = append(e.shards, n)
		sc.Shards = append(sc.Shards, client.ShardConfig{Addr: n.addr})
	}
	e.shardBytes = &byteCounter{}
	co, err := shard.FromConfig(sc, client.DialConfig{DialFunc: countingDial(e.shardBytes)})
	if err != nil {
		return err
	}
	e.coord = co
	n, err := startNode(server.NewProxy(co, nil, server.Options{}), nil, e.traceOn)
	if err != nil {
		return err
	}
	e.nodes = append(e.nodes, n)
	e.front = n
	return nil
}

func countingDial(c *byteCounter) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return &countConn{Conn: nc, c: c}, nil
	}
}

// connect opens worker i's connection and binds its DB.
func (e *env) connect(cfg config, i int) (*worker, error) {
	// The DB and the traced path each hold an instance of the scheme
	// under the run's key.
	schema := workload.EmployeeSchema()
	dbScheme, err := core.New(masterKey(cfg.seed), schema, core.Options{})
	if err != nil {
		return nil, err
	}
	traced, err := core.New(masterKey(cfg.seed), schema, core.Options{})
	if err != nil {
		return nil, err
	}
	w := &worker{table: tableName(e.spec, i), bytes: &byteCounter{}, scheme: traced, verified: e.spec.verified}
	dial := countingDial(w.bytes)
	conn, err := client.DialWithConfig(e.front.addr, client.DialConfig{DialFunc: func(addr string) (net.Conn, error) {
		nc, err := dial(addr)
		if err == nil {
			// The server sees this address as its peer: it pairs the
			// server's spans with this worker's calls.
			w.local = nc.LocalAddr().String()
		}
		return nc, err
	}})
	if err != nil {
		return nil, err
	}
	w.conn = conn
	if e.spec.topo != sharded {
		w.db = client.NewDB(conn, dbScheme, w.table)
		return w, nil
	}
	if w.remote, err = shard.NewRemote(conn, shardMap); err != nil {
		conn.Close()
		return nil, err
	}
	w.db = client.NewShardedDB(w.remote, dbScheme, w.table)
	return w, nil
}

// upload encrypts and stores the tables: on ownTables workloads each
// connection creates its own; otherwise connection 0 creates the shared
// table and the other connection pins its root vector (the sharded
// workload, the only one sharing a verified table) or pins nothing.
func (e *env) upload(d *data) error {
	for i, w := range e.workers {
		switch {
		case e.spec.ownTables || i == 0:
			if err := w.db.CreateTable(d.table(i)); err != nil {
				return fmt.Errorf("creating %s: %w", w.table, err)
			}
		case e.spec.verified:
			if err := w.db.PinShardRoots(e.workers[0].db.ShardRoots()); err != nil {
				return err
			}
		}
	}
	if !e.spec.verified {
		// CreateTable pins the uploaded root; unverified workloads read
		// through DBs that pin none.
		e.workers[0].db.PinRoot(nil, 0)
	}
	return nil
}

// warm issues each worker's warm-up ops concurrently, through the same
// DB calls the timed phase uses, and checks every answer.
func (e *env) warm() error {
	errs := make([]error, len(e.workers))
	var wg sync.WaitGroup
	for i, w := range e.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range w.mix.warm() {
				got, err := w.plain(o)
				if err == nil {
					err = w.check(o, got)
				}
				if err != nil {
					errs[i] = fmt.Errorf("warm-up %s %v: %w", o.kind, o.eqs, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// plain runs one op through the public DB API: the untraced path.
func (w *worker) plain(o op) (*relation.Table, error) {
	switch o.kind {
	case opRead:
		return w.db.Select(o.eqs[0])
	case opConj:
		return w.db.SelectConj(o.eqs)
	default:
		return nil, w.db.Insert(o.row)
	}
}

// check compares a read's answer with the oracle, or records an
// acknowledged insert in it.
func (w *worker) check(o op, got *relation.Table) error {
	if o.kind == opInsert {
		w.oracle.add(o.row)
		return nil
	}
	return w.oracle.check(o.eqs, got)
}

// failLatency stands for the latency of a failed op: it misses every
// latency limit.
const failLatency = time.Duration(math.MaxInt64)

// tally is one worker's record of a phase.
type tally struct {
	reads, writes int
	failed        int
	readLat       []sample
	writeLat      []sample
	rowsPerRead   []int
	userBytes     int // plaintext bytes of acknowledged rows
	exhausted     bool
	firstErr      error
	recs          []opRecord // traced phases only
}

// sample is one op as the closed loop saw it.
type sample struct {
	end time.Duration // completion, from the start of the phase
	lat time.Duration
}

func (w *worker) loop(begin, deadline time.Time, traced bool, t *tally) {
	w.mix.begin()
	for time.Now().Before(deadline) {
		o, ok := w.mix.next(time.Since(begin))
		if !ok {
			t.exhausted = true
			return
		}
		var rec opRecord
		var got *relation.Table
		var err error
		start := time.Now()
		if traced {
			got, err = w.traced(o, &rec)
		} else {
			got, err = w.plain(o)
		}
		took := time.Since(start)
		lat := took
		if err == nil {
			if w.tamper != nil && got != nil {
				w.tamper(got)
			}
			err = w.check(o, got)
		}
		if err != nil {
			t.failed++
			lat = failLatency
			if t.firstErr == nil {
				t.firstErr = err
			}
		}
		if o.kind == opInsert {
			t.writes++
			t.writeLat = append(t.writeLat, sample{time.Since(begin), lat})
			if err == nil {
				t.userBytes += userBytes(o.row)
			}
		} else {
			t.reads++
			t.readLat = append(t.readLat, sample{time.Since(begin), lat})
			if got != nil {
				t.rowsPerRead = append(t.rowsPerRead, got.Len())
			}
		}
		if traced {
			rec.kind, rec.total, rec.failed = o.kind, took, err != nil
			t.recs = append(t.recs, rec)
		}
	}
}

// userBytes is a row's plaintext size: the bytes of its values as the
// user wrote them.
func userBytes(tp relation.Tuple) int {
	n := 0
	for _, v := range tp {
		n += len(v.String())
	}
	return n
}

// counters is a snapshot of every counter a phase reports deltas of.
type counters struct {
	at           time.Time
	cache        cache.Stats
	share        scanshare.Stats
	sched        sched.Stats
	log          storage.LogStats
	logSize      int64
	mallocs      uint64
	gcCPU, cpu   float64
	clientSent   int64
	clientRecv   int64
	shardTraffic int64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (e *env) counters() (counters, error) {
	c := counters{at: time.Now(), sched: sched.Process().Stats()}
	for _, st := range e.stores {
		cs, ss, ls := st.CacheStats(), st.ShareStats(), st.LogStats()
		c.cache.Hits += cs.Hits
		c.cache.Deltas += cs.Deltas
		c.cache.Misses += cs.Misses
		c.cache.Evictions += cs.Evictions
		c.share.Passes += ss.Passes
		c.share.Riders += ss.Riders
		c.share.Attached += ss.Attached
		c.share.LateJoins += ss.LateJoins
		c.log.Records += ls.Records
		c.log.Syncs += ls.Syncs
		if e.spec.topo == durable {
			n, err := st.LogSize()
			if err != nil {
				return c, err
			}
			c.logSize += n
		}
	}
	for _, w := range e.workers {
		c.clientSent += w.bytes.sent.Load()
		c.clientRecv += w.bytes.recv.Load()
	}
	if e.shardBytes != nil {
		c.shardTraffic = e.shardBytes.total()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	metrics.Read(cpuSamples)
	c.gcCPU, c.cpu = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	return c, nil
}

// phaseStats is one timed phase: the workers' tallies and the counter
// deltas around them.
type phaseStats struct {
	traced        bool
	elapsed       time.Duration
	tallies       []*tally
	before, after counters
	rowsStart     []int
	rowsEnd       []int
	// spans[i] are the front server's spans for worker i (traced).
	spans      [][]serviceSpan
	shardSpans [][]serviceSpan // per shard (traced, sharded)
}

// phase runs every worker in a closed loop for d.
func (e *env) phase(d time.Duration, traced bool) (*phaseStats, error) {
	ps := &phaseStats{traced: traced}
	ps.rowsStart = e.tableRows()
	if traced {
		for _, n := range e.nodes {
			n.trace.reset()
		}
		e.traceOn.Store(true)
	}
	var err error
	if ps.before, err = e.counters(); err != nil {
		return nil, err
	}
	deadline := ps.before.at.Add(d)
	var wg sync.WaitGroup
	for _, w := range e.workers {
		t := &tally{}
		ps.tallies = append(ps.tallies, t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ps.before.at, deadline, traced, t)
		}()
	}
	wg.Wait()
	ps.elapsed = time.Since(ps.before.at)
	if ps.after, err = e.counters(); err != nil {
		return nil, err
	}
	if traced {
		// A server logs a span after its response write returns, which
		// can be just after the client has read the response.
		want := 0
		for _, t := range ps.tallies {
			want += len(t.recs)
		}
		for wait := time.Now().Add(2 * time.Second); e.front.trace.count() < want && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
		e.traceOn.Store(false)
		for _, w := range e.workers {
			ps.spans = append(ps.spans, e.front.trace.spans(w.local))
		}
		for _, n := range e.shards {
			var all []serviceSpan
			for _, s := range n.trace.all() {
				all = append(all, s...)
			}
			slices.SortFunc(all, func(a, b serviceSpan) int { return a.start.Compare(b.start) })
			ps.shardSpans = append(ps.shardSpans, all)
		}
	}
	ps.rowsEnd = e.tableRows()
	return ps, nil
}

// tableRows returns each table's row count.
func (e *env) tableRows() []int {
	var out []int
	for i, w := range e.workers {
		if e.spec.ownTables || i == 0 {
			out = append(out, w.oracle.size())
		}
	}
	return out
}
