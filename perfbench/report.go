package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/authindex"
	"repro/internal/core"
	"repro/internal/ph"
	"repro/internal/wire"
)

// spanTolerance is how far, as a share of an op type's mean traced
// latency, the mean sum of its client spans may fall short of it. The
// remainder is the benchmark's own glue between the timed calls.
const spanTolerance = 0.05

// probes is how many of a traced phase's predicates the core probe
// re-evaluates alone.
const probes = 16

// run sets the workload up cfg.setups times, keeps the last set-up, and
// runs the timed phase (untraced), or an untraced and a traced half.
func run(cfg config) (res *result, err error) {
	d, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var e *env
	for i := 0; i < max(cfg.setups, 1); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i-1, err)
			}
		}
		var took time.Duration
		if e, took, err = setUp(cfg, d, i); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, took.Seconds())
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = fmt.Errorf("shutting down: %w", cerr)
		}
	}()

	res = newResult()
	res.note("workload %s seed %d trace %t: %d connections, closed loop, %v timed, %d set-ups",
		cfg.spec.name, cfg.seed, cfg.trace, conns, cfg.seconds, len(setups))
	if !cfg.trace {
		ps, err := e.phase(cfg.seconds, false)
		if err != nil {
			return nil, err
		}
		e.endToEnd(res, ps, setups)
		return res, nil
	}
	u, err := e.phase(cfg.seconds/2, false)
	if err != nil {
		return nil, err
	}
	for _, w := range e.workers {
		if err := w.syncAnchors(); err != nil {
			return nil, err
		}
	}
	t, err := e.phase(cfg.seconds/2, true)
	if err != nil {
		return nil, err
	}
	e.account(res, u)
	if err := e.perLayer(res, u, t); err != nil {
		return nil, err
	}
	return res, nil
}

// sum adds up f over a phase's tallies.
func sum(ps *phaseStats, f func(*tally) int) int {
	n := 0
	for _, t := range ps.tallies {
		n += f(t)
	}
	return n
}

func (ps *phaseStats) ops() int {
	return sum(ps, func(t *tally) int { return t.reads + t.writes })
}

func (ps *phaseStats) reads() int { return sum(ps, func(t *tally) int { return t.reads }) }

// readOpsPerSec is the phase's reads per second of the time the
// connections spent reading (see windowed).
func (ps *phaseStats) readOpsPerSec() float64 {
	writes := busy(ps.samples(func(t *tally) []sample { return t.writeLat }))
	return float64(ps.reads()) / readTime(ps.elapsed, writes).Seconds()
}

// busy sums the latencies of successful ops.
func busy(samples []sample) time.Duration {
	var d time.Duration
	for _, s := range samples {
		if s.lat != failLatency {
			d += s.lat
		}
	}
	return d
}

// readTime is the time per connection, out of d, that the connections
// did not spend on writes taking away between them; at least a tenth
// of d.
func readTime(d, away time.Duration) time.Duration {
	return max(d-away/conns, d/10)
}

// samples merges the workers' samples of one kind.
func (ps *phaseStats) samples(kind func(*tally) []sample) []sample {
	var out []sample
	for _, t := range ps.tallies {
		out = append(out, kind(t)...)
	}
	return out
}

// Time-based metrics are medians over windows of the timed phase: as
// many equal windows as give each about perWindow samples, at most
// maxWindows. On a shared 2-vCPU host the machine's speed drifts in
// episodes of seconds; a median over windows lets an episode covering
// less than half the phase pass, where a whole-phase figure would move
// with it. A window of perWindow samples still has 15 beyond its p99.
const (
	perWindow  = 1500
	maxWindows = 10
)

// The read rate counts reads per second of the time the connections
// spent reading, not waiting on a write: append-requery's inserts wait
// on fsync, whose latency on a shared host's disk swings by tens of
// milliseconds at p99 from one minute to the next, and a rate over wall
// time then measured the disk (the same seed ran at 5,000 and 15,000
// reads/s). The write path's own time is write_p50_ms and write_p99_ms.
// On the read-only workloads it is the plain rate.

// windowStats is the median over windows of a sample set's rate and
// latency percentiles.
type windowStats struct {
	rate     float64 // samples per second
	p50, p99 time.Duration
	windows  int
	// beyondP99 is the fewest samples any window had beyond its p99.
	beyondP99 int
}

// windowed computes them for samples, with the rate over the time the
// connections did not spend on the ops in away, each counted in the
// window it ended in.
func windowed(samples, away []sample, elapsed time.Duration) windowStats {
	k := min(max(len(samples)/perWindow, 1), maxWindows)
	width := elapsed / time.Duration(k)
	win := make([][]time.Duration, k)
	for _, s := range samples {
		i := min(int(s.end/width), k-1)
		win[i] = append(win[i], s.lat)
	}
	awayWin := make([][]sample, k)
	for _, s := range away {
		i := min(int(s.end/width), k-1)
		awayWin[i] = append(awayWin[i], s)
	}
	rates := make([]float64, k)
	p50s, p99s := make([]time.Duration, k), make([]time.Duration, k)
	ws := windowStats{windows: k, beyondP99: len(samples)}
	for i, lats := range win {
		slices.Sort(lats)
		rates[i] = float64(len(lats)) / readTime(width, busy(awayWin[i])).Seconds()
		p50s[i], p99s[i] = percentile(lats, 0.5), percentile(lats, 0.99)
		ws.beyondP99 = min(ws.beyondP99, len(lats)-int(math.Ceil(0.99*float64(len(lats)))))
	}
	ws.rate, ws.p50, ws.p99 = median(rates), median(p50s), median(p99s)
	return ws
}

// median returns the middle value, or the mean of the middle two (halved
// before adding: a failed op's latency is the largest Duration).
func median[T float64 | time.Duration](v []T) T {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return v[n/2-1]/2 + v[n/2]/2
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile[T int | time.Duration](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// account adds a phase's ops to the run's attempted and failed counts.
func (e *env) account(res *result, ps *phaseStats) {
	res.attempted += ps.ops()
	failed := sum(ps, func(t *tally) int { return t.failed })
	res.failed += failed
	for _, t := range ps.tallies {
		if t.firstErr != nil {
			res.fail("%d ops failed; first: %v", failed, t.firstErr)
			break
		}
	}
	for _, t := range ps.tallies {
		if t.exhausted {
			res.fail("a connection ran out of fresh ops before the phase ended; shorten --seconds")
			break
		}
	}
}

// properties records what a later claim must name about the phase: how
// the result cache served it, rows per read, and table sizes.
// The cache shares are per-layer metrics of a traced run, so only an
// untraced run adds them here.
func (e *env) properties(res *result, ps *phaseStats) {
	if !ps.traced {
		c := delta(ps)
		lookups := float64(c.cache.Hits + c.cache.Deltas + c.cache.Misses)
		res.setExtra("cache.hit_frac", ratio(float64(c.cache.Hits), lookups), "ratio")
		res.setExtra("cache.delta_frac", ratio(float64(c.cache.Deltas), lookups), "ratio")
		res.setExtra("cache.miss_frac", ratio(float64(c.cache.Misses), lookups), "ratio")
	}
	var rows []int
	for _, t := range ps.tallies {
		rows = append(rows, t.rowsPerRead...)
	}
	slices.Sort(rows)
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"max", 1}} {
		res.setExtra("rows_per_read."+p.name, float64(percentile(rows, p.q)), "rows")
	}
	for i := range ps.rowsStart {
		res.setExtra(fmt.Sprintf("table_rows.%d.start", i), float64(ps.rowsStart[i]), "rows")
		res.setExtra(fmt.Sprintf("table_rows.%d.end", i), float64(ps.rowsEnd[i]), "rows")
	}
}

// endToEnd reports what a user of the system sees.
func (e *env) endToEnd(res *result, ps *phaseStats, setups []float64) {
	e.account(res, ps)
	c := delta(ps)
	ops := float64(ps.ops())
	writes := ps.samples(func(t *tally) []sample { return t.writeLat })
	reads := windowed(ps.samples(func(t *tally) []sample { return t.readLat }), writes, ps.elapsed)
	res.set("read_ops_s", reads.rate, "ops/s")
	res.set("read_p50_ms", ms(reads.p50), "ms")
	res.set("read_p99_ms", ms(reads.p99), "ms")
	res.set("wire_bytes_per_op", ratio(float64(c.clientSent+c.clientRecv), ops), "B")
	res.set("allocs_per_op", ratio(float64(c.mallocs), ops), "allocs")
	slices.Sort(setups)
	res.set("setup_s", setups[len(setups)/2], "s")

	res.setExtra("failed_frac", ratio(float64(res.failed), float64(res.attempted)), "ratio")
	res.setExtra("read_samples", float64(ps.reads()), "count")
	res.setExtra("read_windows", float64(reads.windows), "count")
	res.setExtra("read_samples_beyond_p99", float64(reads.beyondP99), "count")
	if len(writes) > 0 {
		ws := windowed(writes, nil, ps.elapsed)
		res.setExtra("write_rows_s", ws.rate, "rows/s")
		res.setExtra("write_p50_ms", ms(ws.p50), "ms")
		res.setExtra("write_p99_ms", ms(ws.p99), "ms")
		res.setExtra("write_samples", float64(len(writes)), "count")
		res.setExtra("write_samples_beyond_p99", float64(ws.beyondP99), "count")
		user := sum(ps, func(t *tally) int { return t.userBytes })
		res.setExtra("storage_bytes_per_user_byte", ratio(float64(c.logSize), float64(user)), "ratio")
	}
	e.properties(res, ps)

	// The per-op samples are the benchmark's records, not the program's
	// state, and grow with the run's speed: release them before the live
	// heap is read.
	for _, t := range ps.tallies {
		t.readLat, t.writeLat, t.rowsPerRead = nil, nil, nil
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.set("heap_mb", float64(mem.HeapAlloc)/(1<<20), "MiB")
}

// delta returns the counter changes over a phase.
func delta(ps *phaseStats) counters {
	a, b := ps.after, ps.before
	var d counters
	d.cache.Hits = a.cache.Hits - b.cache.Hits
	d.cache.Deltas = a.cache.Deltas - b.cache.Deltas
	d.cache.Misses = a.cache.Misses - b.cache.Misses
	d.cache.Evictions = a.cache.Evictions - b.cache.Evictions
	d.share.Passes = a.share.Passes - b.share.Passes
	d.share.Riders = a.share.Riders - b.share.Riders
	d.share.Attached = a.share.Attached - b.share.Attached
	d.share.LateJoins = a.share.LateJoins - b.share.LateJoins
	d.sched.Acquires = a.sched.Acquires - b.sched.Acquires
	d.sched.Extras = a.sched.Extras - b.sched.Extras
	d.log.Records = a.log.Records - b.log.Records
	d.log.Syncs = a.log.Syncs - b.log.Syncs
	d.logSize = a.logSize - b.logSize
	d.mallocs = a.mallocs - b.mallocs
	d.gcCPU, d.cpu = a.gcCPU-b.gcCPU, a.cpu-b.cpu
	d.clientSent = a.clientSent - b.clientSent
	d.clientRecv = a.clientRecv - b.clientRecv
	d.shardTraffic = a.shardTraffic - b.shardTraffic
	return d
}

// perLayer reports the traced phase t, and the tracing overhead against
// the untraced phase u.
func (e *env) perLayer(res *result, u, t *phaseStats) error {
	e.account(res, t)
	c := delta(t)
	ops, reads := float64(t.ops()), float64(t.reads())

	var recs []opRecord
	for _, tl := range t.tallies {
		recs = append(recs, tl.recs...)
	}
	var enc, rt, ver, dec, adv time.Duration
	var returned, rows, proofBytes, tested, conjOps, conjHits, inserts int
	for _, r := range recs {
		enc, rt, ver, dec, adv = enc+r.encrypt, rt+r.roundtrip, ver+r.verify, dec+r.decrypt, adv+r.advance
		returned += r.returned
		rows += r.rows
		tested += r.tested
		conjHits += r.conjHits
		for _, vr := range r.vrs {
			proofBytes += len(authindex.EncodeProofs(nil, vr.Proofs))
		}
		switch r.kind {
		case opConj:
			conjOps++
		case opInsert:
			inserts++
		}
	}
	res.set("client.encrypt_us", ratio(us(enc), ops), "us")
	res.set("client.roundtrip_us", ratio(us(rt), ops), "us")
	res.set("client.decrypt_us", ratio(us(dec), reads), "us")
	res.set("client.false_positive_frac", ratio(float64(returned-rows), float64(returned)), "ratio")
	if e.spec.verified {
		res.setExtra("client.verify_us", ratio(us(ver), reads), "us")
	}
	if inserts > 0 {
		res.setExtra("client.root_advance_us", ratio(us(adv), float64(inserts)), "us")
	}

	e.serverLayer(res, t)
	res.set("wire.req_bytes_per_op", ratio(float64(c.clientSent), ops), "B")
	res.set("wire.resp_bytes_per_op", ratio(float64(c.clientRecv), ops), "B")

	lookups := float64(c.cache.Hits + c.cache.Deltas + c.cache.Misses)
	res.set("cache.hit_frac", ratio(float64(c.cache.Hits), lookups), "ratio")
	res.set("cache.delta_frac", ratio(float64(c.cache.Deltas), lookups), "ratio")
	res.set("cache.miss_frac", ratio(float64(c.cache.Misses), lookups), "ratio")
	res.set("cache.evictions", float64(c.cache.Evictions), "count")
	if e.spec.coldReads {
		// Conjunctions hit on their department, which the warm-up
		// cached; every other hit is a single-predicate read that
		// should have missed.
		single := int(c.cache.Hits) - conjHits
		res.setExtra("cache.single_read_hits", float64(single), "count")
		if single != 0 {
			res.fail("%d single-predicate reads hit the result cache on a workload that never repeats one", single)
		}
	} else if c.cache.Evictions > 0 {
		res.note("the result cache evicted %d entries on a workload sized to fit it", c.cache.Evictions)
	}

	queries := float64(c.share.Riders + c.share.Attached)
	res.set("scanshare.riders_per_pass", ratio(float64(c.share.Riders), float64(c.share.Passes)), "count")
	res.set("scanshare.late_join_frac", ratio(float64(c.share.LateJoins), float64(c.share.Riders)), "ratio")
	res.set("scanshare.attached_frac", ratio(float64(c.share.Attached), queries), "ratio")
	res.set("sched.acquires_per_read", ratio(float64(c.sched.Acquires), reads), "count")
	res.set("sched.extras_per_acquire", ratio(float64(c.sched.Extras), float64(c.sched.Acquires)), "count")

	evalMs, err := e.coreProbe(recs)
	if err != nil {
		return err
	}
	res.set("core.evaluate_ms", evalMs, "ms")
	res.set("query.tested_per_conj", ratio(float64(tested), float64(conjOps)), "count")
	res.set("authindex.proof_bytes_per_read", ratio(float64(proofBytes), reads), "B")
	res.set("storage.records_per_fsync", ratio(float64(c.log.Records), float64(c.log.Syncs)), "count")
	if e.spec.topo == durable {
		res.setExtra("storage.fsyncs_s", float64(c.log.Syncs)/t.elapsed.Seconds(), "1/s")
	}
	res.set("shard.bytes_per_read", ratio(float64(c.shardTraffic), reads), "B")
	res.set("gc.cpu_frac", ratio(c.gcCPU, c.cpu), "ratio")
	res.set("trace.overhead_frac", ratio(t.readOpsPerSec()-u.readOpsPerSec(), u.readOpsPerSec()), "ratio")

	// The spans must account for each op type's traced latency.
	for _, kind := range []opKind{opRead, opConj, opInsert} {
		var total, spans time.Duration
		n := 0
		for _, r := range recs {
			if r.kind == kind && !r.failed {
				total += r.total
				spans += r.spans()
				n++
			}
		}
		if n == 0 {
			continue
		}
		gap := ratio(float64(total-spans), float64(total))
		res.setExtra("trace.span_gap_frac."+kind.String(), gap, "ratio")
		if gap < 0 || gap > spanTolerance {
			res.fail("%s: client spans sum to %v of a mean traced latency of %v (tolerance %.0f%%)",
				kind, spans/time.Duration(n), total/time.Duration(n), spanTolerance*100)
		}
	}
	e.properties(res, t)
	return nil
}

// serverLayer pairs the front server's spans with each worker's ops and,
// for the sharded workload, the shard servers' spans with the
// coordinator's.
func (e *env) serverLayer(res *result, t *phaseStats) {
	var readSvc, writeSvc, net time.Duration
	var nReads, nWrites, over int
	var coordReads []serviceSpan
	for i, tl := range t.tallies {
		spans := t.spans[i]
		if len(spans) != len(tl.recs) {
			res.fail("worker %d: %d ops but the server logged %d requests", i, len(tl.recs), len(spans))
			continue
		}
		for j, r := range tl.recs {
			s := spans[j]
			if s.dur() > r.roundtrip {
				over++
			}
			net += r.roundtrip - s.dur()
			if s.cmd == wire.CmdInsertStamped {
				writeSvc += s.dur()
				nWrites++
			} else {
				readSvc += s.dur()
				nReads++
				coordReads = append(coordReads, s)
			}
		}
	}
	if over > 0 {
		res.fail("%d ops took longer at the server than their client round trip", over)
	}
	res.set("server.read_service_us", ratio(us(readSvc), float64(nReads)), "us")
	if nWrites > 0 {
		res.setExtra("server.write_service_us", ratio(us(writeSvc), float64(nWrites)), "us")
	}
	res.set("server.net_us", ratio(us(net), float64(nReads+nWrites)), "us")
	if len(e.shards) == 0 {
		return
	}

	// Each shard serves one request at a time on its coordinator
	// connection, and a coordinator read's shard requests lie inside its
	// span. Taking the coordinator reads by end time and giving each the
	// earliest unused shard request inside it pairs every read; where
	// two overlapping reads could each own either request, the pair may
	// swap, which moves a read's max and min by at most their difference.
	slices.SortFunc(coordReads, func(a, b serviceSpan) int { return a.end.Compare(b.end) })
	used := make([][]bool, len(t.shardSpans))
	for j := range used {
		used[j] = make([]bool, len(t.shardSpans[j]))
	}
	var fanout, straggler time.Duration
	matched := 0
	for _, cs := range coordReads {
		var slow, fast time.Duration = 0, time.Duration(math.MaxInt64)
		picks := make([]int, len(t.shardSpans))
		ok := true
		for j, spans := range t.shardSpans {
			picks[j] = -1
			k, _ := slices.BinarySearchFunc(spans, cs.start, func(s serviceSpan, at time.Time) int { return s.start.Compare(at) })
			for ; k < len(spans) && spans[k].start.Before(cs.end); k++ {
				if !used[j][k] && !spans[k].end.After(cs.end) {
					picks[j] = k
					break
				}
			}
			ok = ok && picks[j] >= 0
		}
		if !ok {
			continue
		}
		for j, k := range picks {
			used[j][k] = true
			d := t.shardSpans[j][k].dur()
			slow, fast = max(slow, d), min(fast, d)
		}
		matched++
		fanout += cs.dur() - slow
		straggler += slow - fast
	}
	if matched < len(coordReads) {
		res.note("%d of %d coordinator reads matched to their shard requests", matched, len(coordReads))
	}
	res.setExtra("shard.fanout_us", ratio(us(fanout), float64(matched)), "us")
	res.setExtra("shard.straggler_us", ratio(us(straggler), float64(matched)), "us")
}

// coreProbe runs core.Evaluate alone, with every worker idle, on the
// first table's snapshot (shard 0's partition when sharded) for up to
// probes of the traced phase's predicates, and returns the mean time.
func (e *env) coreProbe(recs []opRecord) (float64, error) {
	snap, err := e.stores[0].Get(e.workers[0].table)
	if err != nil {
		return 0, err
	}
	var qs []*ph.EncryptedQuery
	for _, r := range recs {
		if r.probe != nil && len(qs) < probes {
			qs = append(qs, r.probe)
		}
	}
	if len(qs) == 0 {
		return 0, errors.New("core probe: no traced reads to re-evaluate")
	}
	start := time.Now()
	for _, q := range qs {
		if _, err := core.Evaluate(snap, q); err != nil {
			return 0, err
		}
	}
	return ms(time.Since(start)) / float64(len(qs)), nil
}
