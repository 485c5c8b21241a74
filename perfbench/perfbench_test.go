package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
)

// contract is the part of BENCHMARK.json the smoke test holds the
// benchmark to: every metric named there, with its unit.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// tiny returns a smoke-sized run of a workload.
func tiny(t *testing.T, name string, trace bool) config {
	return config{
		spec:    workloads[name],
		seed:    7,
		seconds: 200 * time.Millisecond,
		trace:   trace,
		setups:  1,
		dir:     t.TempDir(),
		rows:    2000,
		params:  mixParams{preds: 24, coldWarm: 2},
	}
}

// workloadExtras are the metrics a workload reports beyond the ones
// every workload has.
var workloadExtras = map[string]map[bool][]string{
	"hot-read":       {false: {"failed_frac"}},
	"cold-scan":      {false: {"failed_frac"}, true: {"cache.single_read_hits"}},
	"append-requery": {false: {"failed_frac", "write_rows_s", "write_p50_ms", "write_p99_ms", "storage_bytes_per_user_byte"}, true: {"client.verify_us", "client.root_advance_us", "server.write_service_us", "storage.fsyncs_s"}},
	"sharded-read":   {false: {"failed_frac"}, true: {"client.verify_us", "shard.fanout_us", "shard.straggler_us"}},
}

func TestSmokeAllWorkloads(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, wl := range c.Workloads {
		for _, trace := range []bool{false, true} {
			name := wl.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if _, ok := workloads[wl.Name]; !ok {
					t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
				}
				res, err := run(tiny(t, wl.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("correct=%t failed=%d attempted=%d notes=%q", res.correct, res.failed, res.attempted, res.notes)
				}
				want := c.EndToEnd
				if trace {
					want = c.PerLayer
				}
				if len(res.metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				for _, name := range workloadExtras[wl.Name][trace] {
					if _, ok := res.extra[name]; !ok {
						t.Errorf("workload metric %s not reported", name)
					}
				}
				if hits, ok := res.extra["cache.single_read_hits"]; ok && hits.Value != 0 {
					t.Errorf("%v single-predicate cold-scan reads hit the cache", hits.Value)
				}
			})
		}
	}
}

// TestTamperedAnswerCounted feeds one tampered answer through the timed
// loop: it must count as failed, take a latency that misses every limit
// and make the run incorrect.
func TestTamperedAnswerCounted(t *testing.T) {
	cfg := tiny(t, "hot-read", false)
	var tampered atomic.Bool
	cfg.tamper = func(tb *relation.Table) {
		if tb.Len() > 0 && tampered.CompareAndSwap(false, true) {
			if err := tb.Insert(tb.Tuple(0)); err != nil {
				t.Error(err)
			}
		}
	}
	d, err := prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := setUp(cfg, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ps, err := e.phase(cfg.seconds, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range ps.samples(func(t *tally) []sample { return t.readLat }) {
		if s.lat == failLatency {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d reads at the failure latency, want 1", n)
	}
	res := newResult()
	e.endToEnd(res, ps, []float64{1})
	if res.failed != 1 || res.correct {
		t.Fatalf("failed=%d correct=%t, want one failure and an incorrect run", res.failed, res.correct)
	}
	if f := res.extra["failed_frac"].Value; f != 1/float64(res.attempted) {
		t.Errorf("failed_frac %v, want 1/%d", f, res.attempted)
	}
}

func TestFrameScanner(t *testing.T) {
	// Two frames: type 7 with a 3-byte payload, type 9 with none.
	stream := []byte{0, 0, 0, 4, 7, 'a', 'b', 'c', 0, 0, 0, 1, 9}
	for split := 1; split < len(stream); split++ {
		var f frameScanner
		var ends []int
		for i, chunk := range [][]byte{stream[:split], stream[split:]} {
			if f.feed(chunk) {
				ends = append(ends, i)
			}
		}
		// The second chunk always completes the last frame; the first
		// completes one only if it covers the whole first frame.
		want := []int{1}
		if split >= 8 {
			want = []int{0, 1}
		}
		if !slices.Equal(ends, want) {
			t.Errorf("split at %d: frames ended in chunks %v, want %v", split, ends, want)
		}
	}
}

// TestInsertSchedule: a scheduled mix inserts once an insert is due,
// catches up when behind, reads otherwise, and restarts its schedule at
// each phase.
func TestInsertSchedule(t *testing.T) {
	tb, err := employees(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := appendMix(tb, mixParams{preds: 8}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := func(at time.Duration, n int) []opKind {
		var out []opKind
		for i := 0; i < n; i++ {
			o, ok := m.next(at)
			if !ok {
				t.Fatal("mix ran dry")
			}
			out = append(out, o.kind)
		}
		return out
	}
	m.begin()
	if got := kinds(0, 2); !slices.Equal(got, []opKind{opRead, opRead}) {
		t.Errorf("at 0: %v, want reads only", got)
	}
	// 2.5 inserts are due at step: the first three ops insert.
	step := time.Duration(2.5 / insertsPerSec * float64(time.Second))
	if got := kinds(step, 4); !slices.Equal(got, []opKind{opInsert, opInsert, opInsert, opRead}) {
		t.Errorf("at %v: %v, want three inserts, then a read", step, got)
	}
	m.begin()
	if got := kinds(0, 1); got[0] != opRead {
		t.Errorf("after begin: %v, want the schedule restarted", got)
	}
}

// TestReadRateLeavesOutWrites: the read rate divides by the time the
// connections spent reading, not waiting on writes.
func TestReadRateLeavesOutWrites(t *testing.T) {
	var reads []sample
	for i := 0; i < 100; i++ {
		reads = append(reads, sample{end: time.Duration(i) * 10 * time.Millisecond, lat: time.Millisecond})
	}
	// The two connections waited on writes for one second between them:
	// half of each one's second.
	writes := []sample{{end: 500 * time.Millisecond, lat: 600 * time.Millisecond}, {end: 900 * time.Millisecond, lat: 400 * time.Millisecond}}
	if got := windowed(reads, nil, time.Second).rate; got != 100 {
		t.Errorf("rate without writes %v, want 100", got)
	}
	if got := windowed(reads, writes, time.Second).rate; got != 200 {
		t.Errorf("rate beside writes %v, want 200", got)
	}
}
