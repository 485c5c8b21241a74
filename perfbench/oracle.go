package main

import (
	"fmt"
	"slices"

	"repro/internal/relation"
)

// oracle is the plaintext truth for one table: every row, indexed by
// (column, value), kept up to date with the rows the benchmark inserts.
// Only the goroutine that writes a table's rows may add to its oracle;
// shared tables are never written, so their oracle is read-only.
type oracle struct {
	schema *relation.Schema
	rows   []string // relation.EncodeTuple of each row
	index  map[eqKey][]int
}

type eqKey struct {
	col int
	val string
}

func newOracle(t *relation.Table) *oracle {
	o := &oracle{schema: t.Schema(), index: map[eqKey][]int{}}
	for _, tp := range t.Tuples() {
		o.add(tp)
	}
	return o
}

func (o *oracle) add(tp relation.Tuple) {
	i := len(o.rows)
	o.rows = append(o.rows, string(relation.EncodeTuple(tp)))
	for c, v := range tp {
		k := eqKey{c, v.Encode()}
		o.index[k] = append(o.index[k], i)
	}
}

func (o *oracle) size() int { return len(o.rows) }

// count returns how many rows satisfy eq.
func (o *oracle) count(eq relation.Eq) int {
	return len(o.index[o.key(eq)])
}

func (o *oracle) key(eq relation.Eq) eqKey {
	return eqKey{o.schema.ColumnIndex(eq.Column), eq.Value.Encode()}
}

// want returns the encoded rows selected by the conjunction, sorted.
func (o *oracle) want(eqs []relation.Eq) []string {
	sets := make([][]int, len(eqs))
	for i, eq := range eqs {
		sets[i] = o.index[o.key(eq)]
	}
	var out []string
	for _, r := range sets[0] {
		all := true
		for _, s := range sets[1:] {
			if _, found := slices.BinarySearch(s, r); !found {
				all = false
				break
			}
		}
		if all {
			out = append(out, o.rows[r])
		}
	}
	slices.Sort(out)
	return out
}

// check reports whether got equals the conjunction's selection as a
// multiset.
func (o *oracle) check(eqs []relation.Eq, got *relation.Table) error {
	if got == nil {
		return fmt.Errorf("no answer for %v", eqs)
	}
	want := o.want(eqs)
	have := make([]string, 0, got.Len())
	for _, tp := range got.Tuples() {
		have = append(have, string(relation.EncodeTuple(tp)))
	}
	slices.Sort(have)
	if !slices.Equal(have, want) {
		return fmt.Errorf("answer for %v has %d rows, oracle %d, or differs in content", eqs, len(have), len(want))
	}
	return nil
}
