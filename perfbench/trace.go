package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
)

// opRecord is one traced op: the client-side spans the benchmark timed
// around its calls into each layer, and what the answer carried.
type opRecord struct {
	kind   opKind
	failed bool
	total  time.Duration // the whole op, as the closed loop timed it

	encrypt   time.Duration // core.PH.EncryptQuery / EncryptTable
	roundtrip time.Duration // Conn.Query / QueryVerified / QueryConj / InsertStamped, shard.Remote
	verify    time.Duration // pinned-root checks and authindex.Verify
	decrypt   time.Duration // core.PH.DecryptResult and the conjunct filter
	advance   time.Duration // authindex.Frontier append and root

	returned int                         // encrypted rows the server returned
	rows     int                         // rows left after the client filtered false positives
	vrs      []*authindex.VerifiedResult // verified answers, for their proof bytes
	tested   int                         // query.StepInfo.Tested summed over the plan
	conjHits int                         // conjuncts the plan served from the result cache
	probe    *ph.EncryptedQuery
}

func (r *opRecord) spans() time.Duration {
	return r.encrypt + r.roundtrip + r.verify + r.decrypt + r.advance
}

// lap returns the time since *t and moves *t to now.
func lap(t *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

// traced runs one op as the DB API would, but through the layers'
// public functions directly, timing each call.
func (w *worker) traced(o op, rec *opRecord) (*relation.Table, error) {
	t := time.Now()
	if o.kind == opInsert {
		return nil, w.tracedInsert(o, rec, t)
	}
	qs := make([]*ph.EncryptedQuery, len(o.eqs))
	for i, eq := range o.eqs {
		q, err := w.scheme.EncryptQuery(eq)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	rec.probe = qs[0]
	rec.encrypt = lap(&t)

	// One result per shard (a single server is one shard), verified
	// against the matching pin when the workload verifies.
	var results []*ph.Result
	var verified []*authindex.VerifiedResult
	var plans []*query.PlanInfo
	var err error
	switch {
	case w.remote != nil && o.kind == opConj:
		var resps []*query.Response
		if resps, err = w.remote.QueryConj(w.table, qs, w.verified, nil); err == nil {
			verified, results, plans, err = unpackConj(resps, w.verified)
		}
	case w.remote != nil:
		verified, err = w.remote.QueryVerified(w.table, qs[0], nil)
	case o.kind == opConj:
		var resp *query.Response
		if resp, err = w.conn.QueryConj(w.table, qs, w.verified); err == nil {
			verified, results, plans, err = unpackConj([]*query.Response{resp}, w.verified)
		}
	case w.verified:
		var vr *authindex.VerifiedResult
		if vr, err = w.conn.QueryVerified(w.table, qs[0]); err == nil {
			verified = []*authindex.VerifiedResult{vr}
		}
	default:
		var res *ph.Result
		if res, err = w.conn.Query(w.table, qs[0]); err == nil {
			results = []*ph.Result{res}
		}
	}
	rec.roundtrip = lap(&t)
	if err != nil {
		return nil, err
	}

	if w.verified {
		if len(verified) != len(w.anchor) {
			return nil, fmt.Errorf("verified answer from %d shards, %d pinned", len(verified), len(w.anchor))
		}
		results = results[:0]
		for i, vr := range verified {
			pin := w.anchor[i]
			if err := checkVerified(pin.root, pin.count, vr); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			results = append(results, vr.Result)
		}
		rec.verify = lap(&t)
		rec.vrs = verified
	}

	out := relation.NewTable(w.scheme.Schema())
	rest := make([]relation.Pred, 0, len(o.eqs)-1)
	for _, eq := range o.eqs[1:] {
		rest = append(rest, eq)
	}
	for _, res := range results {
		rec.returned += len(res.Tuples)
		part, err := w.scheme.DecryptResult(o.eqs[0], res)
		if err != nil {
			return nil, err
		}
		if len(rest) > 0 {
			if part, err = relation.Select(part, relation.And{Preds: rest}); err != nil {
				return nil, err
			}
		}
		for _, tp := range part.Tuples() {
			if err := out.Insert(tp); err != nil {
				return nil, err
			}
		}
	}
	rec.decrypt = lap(&t)
	rec.rows = out.Len()
	for _, p := range plans {
		for _, s := range p.Steps {
			rec.tested += s.Tested
			if s.Source == query.SourceHit {
				rec.conjHits++
			}
		}
	}
	return out, nil
}

// tracedInsert encrypts one row, appends it with a stamped insert and
// advances the worker's frontier from the placement ack.
func (w *worker) tracedInsert(o op, rec *opRecord, t time.Time) error {
	tbl := relation.NewTable(w.scheme.Schema())
	if err := tbl.Insert(o.row); err != nil {
		return err
	}
	ct, err := w.scheme.EncryptTable(tbl)
	if err != nil {
		return err
	}
	rec.encrypt = lap(&t)
	ack, err := w.conn.InsertStamped(w.table, ct.Tuples)
	rec.roundtrip = lap(&t)
	if err != nil {
		return err
	}
	if ack.Base != w.frontier.Count() || ack.Count != len(ct.Tuples) {
		return fmt.Errorf("insert landed at %d (+%d), frontier covers %d", ack.Base, ack.Count, w.frontier.Count())
	}
	for _, tp := range ct.Tuples {
		w.frontier.AppendTuple(tp)
	}
	w.anchor[0] = pin{w.frontier.Root(), w.frontier.Count()}
	rec.advance = lap(&t)
	return nil
}

// unpackConj splits conjunctive responses into verified or plain
// results and their plans.
func unpackConj(resps []*query.Response, verified bool) ([]*authindex.VerifiedResult, []*ph.Result, []*query.PlanInfo, error) {
	var vrs []*authindex.VerifiedResult
	var results []*ph.Result
	var plans []*query.PlanInfo
	for i, r := range resps {
		if r == nil {
			return nil, nil, nil, fmt.Errorf("shard %d: no conjunctive response", i)
		}
		if verified {
			if r.Verified == nil {
				return nil, nil, nil, fmt.Errorf("shard %d: verified conjunction answered without proofs", i)
			}
			vrs = append(vrs, r.Verified)
		} else {
			if r.Result == nil {
				return nil, nil, nil, fmt.Errorf("shard %d: conjunction answered without a result", i)
			}
			results = append(results, r.Result)
		}
		if r.Plan != nil {
			plans = append(plans, r.Plan)
		}
	}
	return vrs, results, plans, nil
}

// pin is one pinned anchor: a root and the leaf count it covers.
type pin struct {
	root  []byte
	count int
}

// checkVerified holds a verified answer to a pinned root with the
// client's own rules: root and leaf count match the pin, positions
// ascend strictly, and every tuple's proof hashes back to the root.
func checkVerified(root []byte, leaves int, vr *authindex.VerifiedResult) error {
	if !bytes.Equal(vr.Root, root) || vr.Leaves != leaves {
		return fmt.Errorf("root does not match the pin (server %d leaves, pinned %d)", vr.Leaves, leaves)
	}
	res := vr.Result
	if res == nil || len(vr.Proofs) != len(res.Tuples) || len(res.Tuples) != len(res.Positions) {
		return fmt.Errorf("proofs, tuples and positions do not line up")
	}
	for i, p := range vr.Proofs {
		if i > 0 && res.Positions[i] <= res.Positions[i-1] {
			return fmt.Errorf("positions not strictly ascending")
		}
		if p.Position != res.Positions[i] {
			return fmt.Errorf("proof %d is for position %d, want %d", i, p.Position, res.Positions[i])
		}
		if err := authindex.Verify(root, leaves, res.Tuples[i], p); err != nil {
			return fmt.Errorf("tuple %d: %w", i, err)
		}
	}
	return nil
}

// syncAnchors copies the DB's pinned anchor into the traced path: the
// shard root vector, or the frontier of the worker's table rebuilt from
// a fetch that must hash to the DB's pinned root.
func (w *worker) syncAnchors() error {
	if !w.verified {
		return nil
	}
	if w.remote != nil {
		roots, counts := w.db.ShardRoots()
		w.anchor = w.anchor[:0]
		for i := range roots {
			w.anchor = append(w.anchor, pin{roots[i], counts[i]})
		}
		return nil
	}
	ct, err := w.conn.FetchAll(w.table)
	if err != nil {
		return err
	}
	f := authindex.FrontierOf(ct)
	root, n := w.db.Root()
	if !bytes.Equal(f.Root(), root) || f.Count() != n {
		return fmt.Errorf("%s: fetched table does not match the pinned root", w.table)
	}
	w.frontier = f
	w.anchor = []pin{{root, n}}
	return nil
}
