// Command perfbench is the repository's loopback benchmark. It starts the
// repo's own server.Server (over a storage.Store, or a shard.Coordinator
// behind server.NewProxy) in-process on loopback TCP, wired as
// cmd/phserver wires them, drives it through the public client API over
// two connections in a closed loop, checks every answer against a
// plaintext oracle, and prints its metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload hot-read --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// runs the workload untraced for half the time and traced for the other
// half, and reports the per-layer metrics. Every metric is printed as a
// "metric <name> <value> <unit>" line; the last line of standard output
// is one JSON object with the keys correct, attempted, failed and metrics.
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed: tables, predicates, op mix and the master key derive from it")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive, got %v", *seconds)
	}
	w, ok := workloads[*workload]
	if !ok {
		fatalf("unknown --workload %q (want one of %s)", *workload, workloadNames())
	}
	cfg := config{
		spec:    w,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		setups:  defaultSetups,
	}
	if err := benchmark(cfg, os.Stdout); err != nil {
		fatalf("%s: %v", *workload, err)
	}
}

// benchmark runs cfg with a scratch directory under $CARGO_TARGET_DIR
// (default .bench_build), removed afterwards, and prints the result.
func benchmark(cfg config, out io.Writer) error {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return fmt.Errorf("creating scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(base, "perfbench-")
	if err != nil {
		return fmt.Errorf("creating scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	if cfg.dir, err = filepath.Abs(dir); err != nil {
		return fmt.Errorf("resolving scratch directory: %w", err)
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	return res.print(out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. metrics holds exactly the metrics of
// the run's kind (end-to-end or per-layer) that every workload has;
// extra holds the ones that apply to this workload only and the
// workload properties a claim must name. Both are printed by name; only
// metrics enter the closing JSON line.
type result struct {
	correct   bool
	attempted int
	failed    int
	notes     []string
	metrics   map[string]metric
	order     []string
	extra     map[string]metric
	extraKeys []string
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]metric{}, extra: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: finite(v), Unit: unit}
}

func (r *result) setExtra(name string, v float64, unit string) {
	if _, ok := r.extra[name]; !ok {
		r.extraKeys = append(r.extraKeys, name)
	}
	r.extra[name] = metric{Value: finite(v), Unit: unit}
}

// fail marks the run incorrect and records why.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// print writes the human-readable lines and then the closing JSON line.
func (r *result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, k := range r.order {
		m := r.metrics[k]
		fmt.Fprintf(w, "metric %s %g %s\n", k, m.Value, m.Unit)
	}
	for _, k := range r.extraKeys {
		m := r.extra[k]
		fmt.Fprintf(w, "metric %s %g %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
