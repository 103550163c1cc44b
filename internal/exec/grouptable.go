package exec

import "aggify/internal/sqltypes"

// This file implements the one hash-aggregation group table, shared by
// HashAggOp (serial) and ParallelAggOp (one table per worker, merged in
// partition order). Rows enter either one at a time (addRow) or as a batch
// (addBatch). The batch entry reads group keys straight out of the rows by
// the planner-resolved ordinals, buckets rows into per-group selection
// vectors (in input order, so order-within-group — and with it float
// summation order — matches the row entry exactly), and folds each
// builtin aggregate over a whole selection through one StepBatch call. The
// per-row interface and closure costs that made row-at-a-time aggregation
// cursor-slow are paid once per group per batch.

// BatchWorthwhile reports whether the vectorized fold would actually cut
// per-row costs for an aggregation: every group key must be ordinal-resolved
// (nKeys == 0 or groupOrds non-nil) and every aggregate must fold whole
// selections through StepBatch — COUNT(*) or a single ordinal-resolved
// argument on an aggregate implementing BatchStepper. Anything else (custom
// aggregates with procedural Accumulate bodies, expression arguments) gains
// nothing from batching; those plans keep the row path. The planner calls
// this to label plans, the aggregation operators to pick the path, so
// EXPLAIN and execution always agree.
func BatchWorthwhile(nKeys int, groupOrds []int, aggs []AggInstance) bool {
	if nKeys > 0 && groupOrds == nil {
		return false
	}
	for i := range aggs {
		ai := &aggs[i]
		if ai.Star {
			continue
		}
		if len(ai.ArgOrds) != 1 {
			return false
		}
		if _, ok := ai.Spec.New().(BatchStepper); !ok {
			return false
		}
	}
	return true
}

// aggGroup is one group: its key values and one Aggregator per aggregate.
type aggGroup struct {
	keys []sqltypes.Value
	aggs []Aggregator
	sel  []int // transient per-batch selection vector (addBatch only)
}

// groupTable looks groups up by key hash, creating each on first sight with
// a copy of its key, and remembers first-seen order so output order is
// deterministic. A scalar aggregation (no group keys) has at most one group
// and skips hashing.
type groupTable struct {
	groupKeys []Scalar
	groupOrds []int // when non-nil, input ordinal of every group key
	aggs      []AggInstance

	index map[uint64][]*aggGroup
	order []*aggGroup

	keybuf  []sqltypes.Value
	bufs    [][]sqltypes.Value // per-aggregate argument buffers
	touched []*aggGroup
	allSel  []int
}

func newGroupTable(groupKeys []Scalar, groupOrds []int, aggs []AggInstance) *groupTable {
	return &groupTable{
		groupKeys: groupKeys,
		groupOrds: groupOrds,
		aggs:      aggs,
		index:     map[uint64][]*aggGroup{},
		keybuf:    make([]sqltypes.Value, len(groupKeys)),
		bufs:      argBuffers(aggs),
	}
}

// find returns the group whose key equals keys (nil if none) and the key's
// hash for a following insert.
func (t *groupTable) find(keys []sqltypes.Value) (*aggGroup, uint64) {
	if len(t.groupKeys) == 0 {
		if len(t.order) > 0 {
			return t.order[0], 0
		}
		return nil, 0
	}
	var h uint64
	if len(keys) == 1 {
		// One key needs no row-level combining: its own hash is cheaper
		// and equally consistent, since every entry point hashes here.
		h = sqltypes.Hash(keys[0])
	} else {
		h = sqltypes.HashRow(keys)
	}
	for _, g := range t.index[h] {
		if sqltypes.RowsGroupEqual(g.keys, keys) {
			return g, h
		}
	}
	return nil, h
}

func (t *groupTable) insert(h uint64, g *aggGroup) {
	if len(t.groupKeys) > 0 {
		t.index[h] = append(t.index[h], g)
	}
	t.order = append(t.order, g)
}

// group returns the group for keys, creating it on first sight. keys may be
// a reused buffer: a new group stores its own copy.
func (t *groupTable) group(keys []sqltypes.Value) *aggGroup {
	g, h := t.find(keys)
	if g == nil {
		g = &aggGroup{aggs: newAggregators(t.aggs)}
		if len(keys) > 0 {
			g.keys = append([]sqltypes.Value(nil), keys...)
		}
		t.insert(h, g)
	}
	return g
}

// addRow folds one row: the row entry point.
func (t *groupTable) addRow(ctx *Ctx, row Row) error {
	for k, key := range t.groupKeys {
		v, err := key(ctx, row)
		if err != nil {
			return err
		}
		t.keybuf[k] = v
	}
	g := t.group(t.keybuf)
	for i := range t.aggs {
		if err := t.aggs[i].step(ctx, g.aggs[i], row, t.bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// addBatch folds a batch of rows: the batch entry point. Callers check
// BatchWorthwhile first, so every group key has an ordinal.
func (t *groupTable) addBatch(ctx *Ctx, rows []Row) error {
	if len(t.groupKeys) == 0 {
		for len(t.allSel) < len(rows) {
			t.allSel = append(t.allSel, len(t.allSel))
		}
		return t.stepGroup(ctx, t.group(nil), rows, t.allSel[:len(rows)])
	}
	for i, row := range rows {
		for k, ord := range t.groupOrds {
			t.keybuf[k] = row[ord]
		}
		g := t.group(t.keybuf)
		if len(g.sel) == 0 {
			t.touched = append(t.touched, g)
		}
		g.sel = append(g.sel, i)
	}
	for _, g := range t.touched {
		if err := t.stepGroup(ctx, g, rows, g.sel); err != nil {
			return err
		}
		g.sel = g.sel[:0]
	}
	t.touched = t.touched[:0]
	return nil
}

// stepGroup folds the selected rows into one group's aggregates. sel is in
// ascending row order, so each aggregate observes its inputs in exactly the
// order the row entry would feed them.
func (t *groupTable) stepGroup(ctx *Ctx, g *aggGroup, rows []Row, sel []int) error {
	for j := range t.aggs {
		inst := &t.aggs[j]
		if bs, ok := g.aggs[j].(BatchStepper); ok {
			ord := -1
			if !inst.Star {
				ord = inst.ArgOrds[0]
			}
			if err := bs.StepBatch(rows, ord, sel); err != nil {
				return err
			}
			continue
		}
		for _, i := range sel {
			if err := inst.step(ctx, g.aggs[j], rows[i], t.bufs[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// fold drains in (already open) into the table: whole batches when in
// produces them natively, noBatch is unset and BatchWorthwhile holds, else
// row by row. Both paths visit rows in the same order, so results are
// byte-identical.
func (t *groupTable) fold(ctx *Ctx, in Operator, noBatch bool) error {
	if !noBatch && CanBatch(in) && BatchWorthwhile(len(t.groupKeys), t.groupOrds, t.aggs) {
		src := in.(BatchOperator)
		for {
			// Batch consumers bypass Next and its per-row interrupt stride.
			if ctx.Interrupted() {
				return ErrInterrupted
			}
			b, err := src.NextBatch(ctx)
			if err != nil || b == nil {
				return err
			}
			if err := t.addBatch(ctx, b.Rows); err != nil {
				return err
			}
		}
	}
	for n := 1; ; n++ {
		row, err := in.Next(ctx)
		if err != nil || row == nil {
			return err
		}
		if n%1024 == 0 && ctx.Interrupted() {
			return ErrInterrupted
		}
		if err := t.addRow(ctx, row); err != nil {
			return err
		}
	}
}

// merge folds other's partial groups into t in other's first-seen order:
// groups t already has combine through Aggregator.Merge, new ones are
// adopted as they are.
func (t *groupTable) merge(other *groupTable) error {
	for _, og := range other.order {
		g, h := t.find(og.keys)
		if g == nil {
			t.insert(h, og)
			continue
		}
		for i := range g.aggs {
			if err := g.aggs[i].Merge(og.aggs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// results emits one row per group in first-seen order. A scalar
// aggregation over no input still yields one row: Init + Terminate only,
// the semantics Aggify's empty-cursor case relies on.
func (t *groupTable) results(ctx *Ctx) ([]Row, error) {
	if len(t.groupKeys) == 0 {
		t.group(nil)
	}
	out := make([]Row, len(t.order))
	for i, g := range t.order {
		r, err := resultRow(ctx, g.keys, g.aggs)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// newAggregators creates and initializes one Aggregator per instance.
func newAggregators(insts []AggInstance) []Aggregator {
	aggs := make([]Aggregator, len(insts))
	for i, ai := range insts {
		aggs[i] = ai.Spec.New()
		aggs[i].Reset()
	}
	return aggs
}

// resultRow builds one output row: the group key followed by each
// aggregate's Result.
func resultRow(ctx *Ctx, keys []sqltypes.Value, aggs []Aggregator) (Row, error) {
	out := make(Row, len(keys)+len(aggs))
	copy(out, keys)
	for i, a := range aggs {
		v, err := a.Result(ctx)
		if err != nil {
			return nil, err
		}
		out[len(keys)+i] = v
	}
	return out, nil
}
