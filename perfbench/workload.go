package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/relation"
	"repro/internal/workload"
)

// topology is how the servers under test are wired.
type topology int

const (
	// memory: one server over an in-memory store.
	memory topology = iota
	// durable: one server over a store with a write-ahead log under
	// sync=always, phserver's default for -log.
	durable
	// sharded: two in-memory shard servers behind a coordinator served
	// by server.NewProxy; clients use shard.NewRemote.
	sharded
)

// spec describes one workload. Every workload runs two connections in a
// closed loop, each its own goroutine and client.Conn.
type spec struct {
	name string
	rows int // rows per table at start
	topo topology
	// ownTables gives each connection its own table, so each
	// connection's DB pins its own root and inserts without foreign
	// writers; otherwise both connections read one table.
	ownTables bool
	// verified makes the DBs pin a root: reads are verified against it.
	verified bool
	// coldReads: no predicate repeats, so every single-predicate read
	// must miss the result cache (checked in traced runs).
	coldReads bool
	// mix builds one connection's op source from its table's rows.
	mix func(t *relation.Table, p mixParams, seed int64, conn int) (mixer, error)
}

// mixParams are the sizes a mix may be scaled by (the smoke test runs
// tiny ones).
type mixParams struct {
	preds    int // predicates a Zipf mix draws from
	coldWarm int // fresh reads each cold-scan connection warms up with
}

// insertsPerSec is each append-requery connection's insert schedule.
// Inserts run at a fixed rate rather than as a fixed share of ops: when
// every fifth op was an insert, the time reads lost to waiting on fsync,
// and with it read_ops_s, followed the host disk's fsync latency (one
// seed ran at 2,700 reads/s, the next at 7,400), and a faster run grew
// its tables, heap and false positives more. On a schedule a run inserts
// the same rows at any speed: a 30 s run adds 1,500 rows per table. The
// rate is low because every fsync also costs the reads beside it, more
// so while the host's disk is slow: at 125 rows/s read p99 doubled in
// such episodes.
const insertsPerSec = 50

// insertPool is how many rows, as a multiple of its table's initial
// size, an append-requery connection can insert before it runs dry:
// over two minutes of the schedule.
const insertPool = 2

var workloads = map[string]spec{
	// Cache fits: after warm-up every read is a result-cache hit, so the
	// cost is wire, dispatch, the hit path and client decrypt; psi idles.
	"hot-read": {name: "hot-read", rows: 4096, topo: memory, mix: hotReadMix},
	// Larger than the cache: no predicate repeats, so every
	// single-predicate read misses and runs psi through scanshare, sched
	// and core; conjunctions run the planner's narrowed pass.
	"cold-scan": {name: "cold-scan", rows: 10000, topo: memory, coldReads: true, mix: coldScanMix},
	// Writes beside reads: WAL and group commit, the table write lock,
	// the cache's delta path, authindex extend/prove and client verify.
	"append-requery": {name: "append-requery", rows: 4096, topo: durable, ownTables: true, verified: true, mix: appendMix},
	// The only workload where internal/shard runs: scatter, per-shard
	// framing, merge and root-of-roots verification.
	"sharded-read": {name: "sharded-read", rows: 4096, topo: sharded, verified: true, mix: shardedMix},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

type opKind int

const (
	opRead   opKind = iota // single-predicate select
	opConj                 // conjunctive select
	opInsert               // single-row insert
)

func (k opKind) String() string {
	return [...]string{"read", "conj", "insert"}[k]
}

// op is one client operation.
type op struct {
	kind opKind
	eqs  []relation.Eq // reads
	row  relation.Tuple
}

// mixer is one connection's op source.
type mixer interface {
	// warm returns the ops the set-up issues before timing starts.
	warm() []op
	// begin starts a timed phase.
	begin()
	// next draws the next timed op, at the given time since its phase
	// began; ok is false when the source is exhausted.
	next(at time.Duration) (o op, ok bool)
}

// zipfMix draws point reads Zipf-distributed over a fixed predicate
// set, so after warm-up the result cache holds every answer. Every
// every-th op comes from the side stream instead: large-result reads
// round-robin or conjunctions Zipf-distributed. A fixed cycle rather
// than a coin keeps each run's mix exact. Inserts instead run on a
// schedule of perSec rows a second from the start of each phase: when
// one is due it is the next op, and a connection that fell behind
// inserts until it has caught up.
type zipfMix struct {
	n      int // ops drawn so far
	points []op
	pZipf  *rand.Zipf
	every  int
	side   opKind
	large  []op
	conj   []op
	cZipf  *rand.Zipf
	// inserts are the rows still to insert; phaseInserts counts the
	// ones issued since the phase began.
	inserts      []relation.Tuple
	perSec       float64
	phaseInserts int
	// The warm-up issues every predicate once: this connection takes
	// every warmStep-th one from warmFrom, so connections sharing a
	// table split it.
	warmFrom, warmStep int
}

func (m *zipfMix) warm() []op {
	var out []op
	for i, o := range slices.Concat(m.points, m.large, m.conj) {
		if i%m.warmStep == m.warmFrom {
			out = append(out, o)
		}
	}
	return out
}

func (m *zipfMix) begin() { m.phaseInserts = 0 }

func (m *zipfMix) next(at time.Duration) (op, bool) {
	if m.perSec > 0 && float64(m.phaseInserts) < at.Seconds()*m.perSec {
		if len(m.inserts) == 0 {
			return op{}, false
		}
		row := m.inserts[0]
		m.inserts = m.inserts[1:]
		m.phaseInserts++
		return op{kind: opInsert, row: row}, true
	}
	m.n++
	if m.every == 0 || m.n%m.every != 0 {
		return m.points[m.pZipf.Uint64()], true
	}
	switch m.side {
	case opConj:
		return m.conj[m.cZipf.Uint64()], true
	default:
		return m.large[(m.n/m.every)%len(m.large)], true
	}
}

// zipfOver returns a Zipf sampler over n ranks, P(k) ∝ (8+k)^-1.1; the
// caller's list order (shuffled by the seed) decides which predicate is
// hot. The offset of 8 keeps the hottest rank near 2% of draws: which
// predicates carry SWP false positives changes with every encryption, and
// a steeper head would let one or two of them swing a run's result sizes.
func zipfOver(rng *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(rng, 1.1, 8, uint64(n-1))
}

// pointSize is the row count of the point predicate at Zipf rank i:
// mostly 1, every fourth 2 and every sixteenth 3, the same at every
// seed, so a run's mix of result sizes does not depend on which
// predicates its seed made hot.
func pointSize(i int) int {
	n := 1
	if i%4 == 1 {
		n++
	}
	if i%16 == 5 {
		n++
	}
	return n
}

// pointPreds draws n distinct point predicates on name or salary, in
// Zipf rank order, the predicate at rank i selecting pointSize(i) rows.
// When the table has no unused value of that size left, it takes one of
// any size from 1 to 3.
func pointPreds(t *relation.Table, o *oracle, n int, rng *rand.Rand) ([]op, error) {
	bySize := map[int][]relation.Eq{}
	seen := map[eqKey]bool{}
	for _, i := range rng.Perm(t.Len()) {
		tp := t.Tuple(i)
		for _, col := range []string{"name", "salary"} {
			eq := relation.Eq{Column: col, Value: tp[t.Schema().ColumnIndex(col)]}
			k := o.key(eq)
			if c := o.count(eq); !seen[k] && c <= 3 {
				seen[k] = true
				bySize[c] = append(bySize[c], eq)
			}
		}
	}
	out := make([]op, 0, n)
	for i := 0; i < n; i++ {
		size := pointSize(i)
		for s := 1; len(bySize[size]) == 0 && s <= 3; s++ {
			size = s
		}
		if len(bySize[size]) == 0 {
			return nil, fmt.Errorf("only %d of %d point predicates in a %d-row table", i, n, t.Len())
		}
		out = append(out, op{kind: opRead, eqs: []relation.Eq{bySize[size][0]}})
		bySize[size] = bySize[size][1:]
	}
	return out, nil
}

// deptWeights are the department shares of workload.Employees: a Zipf
// with s = 1.3 and v = 1 over Departments.
func deptWeights() []float64 {
	w := make([]float64, len(workload.Departments))
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -1.3)
		sum += w[k]
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

// employees generates n rows like workload.Employees — seeded names and
// salaries, Zipf-shared departments — except that each department gets
// exactly its share of the rows (largest remainder) in seeded order, so
// department sizes are the same at every seed.
func employees(n int, seed int64) (*relation.Table, error) {
	rng := rand.New(rand.NewSource(seed))
	depts := make([]string, 0, n)
	type rem struct {
		k    int
		frac float64
	}
	var rems []rem
	for k, w := range deptWeights() {
		exact := w * float64(n)
		for j := 0; j < int(exact); j++ {
			depts = append(depts, workload.Departments[k])
		}
		rems = append(rems, rem{k, exact - math.Floor(exact)})
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; len(depts) < n; i++ {
		depts = append(depts, workload.Departments[rems[i].k])
	}
	rng.Shuffle(n, func(i, j int) { depts[i], depts[j] = depts[j], depts[i] })
	t := relation.NewTable(workload.EmployeeSchema())
	for _, d := range depts {
		err := t.Insert(relation.Tuple{
			relation.String(workload.PersonName(rng)),
			relation.String(d),
			relation.Int(1000 + rng.Int63n(99000)),
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// smallestDepts returns reads of the n departments with fewest rows.
func smallestDepts(t *relation.Table, n int) []op {
	counts := map[string]int{}
	for _, tp := range t.Tuples() {
		counts[tp[1].Str()]++
	}
	depts := make([]string, 0, len(counts))
	for d := range counts {
		depts = append(depts, d)
	}
	sort.Slice(depts, func(i, j int) bool {
		if counts[depts[i]] != counts[depts[j]] {
			return counts[depts[i]] < counts[depts[j]]
		}
		return depts[i] < depts[j]
	})
	out := make([]op, 0, n)
	for _, d := range depts[:min(n, len(depts))] {
		out = append(out, op{kind: opRead, eqs: []relation.Eq{{Column: "dept", Value: relation.String(d)}}})
	}
	return out
}

// nameSalaryPreds draws n distinct conjunctions name = x AND salary = y
// of one row. Both conjuncts are point-like, so whichever the planner
// drives with is cached by the warm-up and the other is tested at one
// to three candidates: the plan cannot flip into an expensive one as
// the selectivity sketch learns.
func nameSalaryPreds(t *relation.Table, n int, rng *rand.Rand) []op {
	seen := map[string]bool{}
	var out []op
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		tp := t.Tuple(rng.Intn(t.Len()))
		k := tp[0].Encode() + "/" + tp[2].Encode()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, op{kind: opConj, eqs: []relation.Eq{
			{Column: "name", Value: tp[0]},
			{Column: "salary", Value: tp[2]},
		}})
	}
	return out
}

// seeded returns a deterministic source for one purpose of one run.
func seeded(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// hotReadMix: 90% point reads Zipf over the predicate set, 10% reads of
// the three smallest departments (the large-result path). Both
// connections read one table with the same predicate set and split its
// warm-up.
func hotReadMix(t *relation.Table, p mixParams, seed int64, conn int) (mixer, error) {
	large := smallestDepts(t, 3)
	points, err := pointPreds(t, newOracle(t), p.preds-len(large), seeded(seed, 10))
	if err != nil {
		return nil, err
	}
	rng := seeded(seed, 20+conn)
	return &zipfMix{
		points: points, pZipf: zipfOver(rng, len(points)),
		every: 10, side: opRead, large: large,
		warmFrom: conn, warmStep: 2,
	}, nil
}

// appendMix: verified point reads Zipf over the predicate set, and
// single-row inserts on a schedule of insertsPerSec. Each connection has
// its own table (t) and warms all of its predicates. Inserted rows take
// names and salaries the table never had, so no read predicate matches
// them: read result sizes stay what the seed made them, however many
// rows a run appends, while a read after an insert still scans the
// appended tail through the cache's delta path.
func appendMix(t *relation.Table, p mixParams, seed int64, conn int) (mixer, error) {
	points, err := pointPreds(t, newOracle(t), p.preds, seeded(seed, 10+conn))
	if err != nil {
		return nil, err
	}
	rows, err := employees(insertPool*t.Len(), seed*1_000_003+int64(30+conn))
	if err != nil {
		return nil, err
	}
	taken := map[int64]bool{}
	for _, tp := range t.Tuples() {
		taken[tp[2].Integer()] = true
	}
	srng := seeded(seed, 40+conn)
	inserts := rows.Tuples()
	for i, tp := range inserts {
		salary := 1000 + srng.Int63n(99000)
		for taken[salary] {
			salary = 1000 + srng.Int63n(99000)
		}
		inserts[i] = relation.Tuple{relation.String(fmt.Sprintf("New%07d", i)), tp[1], relation.Int(salary)}
	}
	rng := seeded(seed, 20+conn)
	return &zipfMix{
		points: points, pZipf: zipfOver(rng, len(points)),
		inserts: inserts, perSec: insertsPerSec, warmStep: 1,
	}, nil
}

// shardedMix: 80% verified point reads and 20% verified name-and-salary
// conjunctions, each Zipf over its share of the predicate set. Both
// connections read one table and split its warm-up.
func shardedMix(t *relation.Table, p mixParams, seed int64, conn int) (mixer, error) {
	nConj := p.preds / 5
	prng := seeded(seed, 10)
	points, err := pointPreds(t, newOracle(t), p.preds-nConj, prng)
	if err != nil {
		return nil, err
	}
	conj := nameSalaryPreds(t, nConj, prng)
	rng := seeded(seed, 20+conn)
	return &zipfMix{
		points: points, pZipf: zipfOver(rng, len(points)),
		every: 5, side: opConj, conj: conj, cZipf: zipfOver(rng, len(conj)),
		warmFrom: conn, warmStep: 2,
	}, nil
}

// freshMix never repeats a predicate: each read takes the next value
// from a seeded permutation of the table's distinct names and salaries.
type freshMix struct {
	n        int              // ops drawn so far
	names    []relation.Tuple // one row per distinct name
	salaries []relation.Value
	depts    []op // department reads the warm-up caches
	warmN    int
}

// coldScanMix: 20% conjunctions of a fresh name and its row's
// department, 40% reads of a fresh name, 40% of a fresh salary. The two
// connections draw from disjoint halves of one seeded permutation of the
// table's distinct values, so no predicate repeats within a run.
func coldScanMix(t *relation.Table, p mixParams, seed int64, conn int) (mixer, error) {
	seenName, seenSal := map[string]bool{}, map[string]bool{}
	var names []relation.Tuple
	var sals []relation.Value
	for _, tp := range t.Tuples() {
		if k := tp[0].Encode(); !seenName[k] {
			seenName[k] = true
			names = append(names, tp)
		}
		if k := tp[2].Encode(); !seenSal[k] {
			seenSal[k] = true
			sals = append(sals, tp[2])
		}
	}
	prng := seeded(seed, 10)
	prng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	prng.Shuffle(len(sals), func(i, j int) { sals[i], sals[j] = sals[j], sals[i] })
	m := &freshMix{warmN: p.coldWarm}
	// The warm-up caches every department, so each conjunction's plan is
	// the same at every seed and in every process: the cached department
	// first, then the fresh name tested at its positions. Left to the
	// selectivity sketch, the planner's choice of driver depends on the
	// order earlier scans happened to land in.
	for j, o := range smallestDepts(t, len(workload.Departments)) {
		if j%2 == conn {
			m.depts = append(m.depts, o)
		}
	}
	for j := conn; j < len(names); j += 2 {
		m.names = append(m.names, names[j])
	}
	for j := conn; j < len(sals); j += 2 {
		m.salaries = append(m.salaries, sals[j])
	}
	return m, nil
}

func (m *freshMix) warm() []op {
	out := slices.Clone(m.depts)
	for i := 0; i < m.warmN; i++ {
		if o, ok := m.next(0); ok {
			out = append(out, o)
		}
	}
	return out
}

func (m *freshMix) begin() {}

// next cycles through ten ops: four fresh names, four fresh salaries
// and two conjunctions.
func (m *freshMix) next(time.Duration) (op, bool) {
	m.n++
	if m.n%5 != 0 && m.n%2 == 1 {
		if len(m.salaries) == 0 {
			return op{}, false
		}
		v := m.salaries[0]
		m.salaries = m.salaries[1:]
		return op{kind: opRead, eqs: []relation.Eq{{Column: "salary", Value: v}}}, true
	}
	if len(m.names) == 0 {
		return op{}, false
	}
	tp := m.names[0]
	m.names = m.names[1:]
	if m.n%5 == 0 {
		return op{kind: opConj, eqs: []relation.Eq{
			{Column: "name", Value: tp[0]},
			{Column: "dept", Value: tp[1]},
		}}, true
	}
	return op{kind: opRead, eqs: []relation.Eq{{Column: "name", Value: tp[0]}}}, true
}
