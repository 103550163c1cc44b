package exec

import (
	"fmt"
	"sync"

	"aggify/internal/sqltypes"
)

// AggInstance pairs an aggregate spec with its compiled argument scalars.
type AggInstance struct {
	Spec *AggSpec
	Args []Scalar
	Star bool // COUNT(*): no arguments are evaluated
	// ArgOrds, when non-nil (same length as Args), gives the input column
	// ordinal of every argument: the planner sets it when each argument is a
	// plain column reference, unlocking the vectorized StepBatch path that
	// reads arguments straight out of the batch's rows instead of evaluating
	// Args row by row.
	ArgOrds []int
}

// step folds one row, reusing buf for argument evaluation (Step
// implementations must not retain the slice).
func (ai *AggInstance) step(ctx *Ctx, agg Aggregator, row Row, buf []sqltypes.Value) error {
	if ai.Star {
		return agg.Step(ctx, nil)
	}
	for i, s := range ai.Args {
		v, err := s(ctx, row)
		if err != nil {
			return err
		}
		buf[i] = v
	}
	return agg.Step(ctx, buf[:len(ai.Args)])
}

// argBuffers allocates one reusable argument buffer per aggregate.
func argBuffers(aggs []AggInstance) [][]sqltypes.Value {
	out := make([][]sqltypes.Value, len(aggs))
	for i, ai := range aggs {
		out[i] = make([]sqltypes.Value, len(ai.Args))
	}
	return out
}

// HashAggOp groups its input by GroupKeys and folds each group through the
// aggregates. With no group keys it is a scalar aggregate: exactly one
// output row, produced even for empty input (Init + Terminate only — the
// semantics Aggify's empty-cursor case relies on).
//
// Rows fold through the group table in grouptable.go — as whole batches
// when the child produces them natively (and NoBatch is unset); groups and
// rows are visited in the same order on both paths, so results are
// byte-identical.
type HashAggOp struct {
	Child     Operator
	GroupKeys []Scalar
	Aggs      []AggInstance
	// GroupOrds, when non-nil (same length as GroupKeys), gives the input
	// column ordinal of every group key for the vectorized fold.
	GroupOrds []int
	// NoBatch forces the row-at-a-time path (the planner sets it under
	// Options.DisableBatch, keeping the row path benchmarkable/testable).
	NoBatch bool

	groups []Row
	pos    int
}

// BufferedRows reports the number of materialized groups.
func (o *HashAggOp) BufferedRows() int { return len(o.groups) }

// Open implements Operator: it consumes the child entirely.
func (o *HashAggOp) Open(ctx *Ctx) error {
	o.groups = nil
	o.pos = 0
	if err := o.Child.Open(ctx); err != nil {
		return err
	}
	defer o.Child.Close()
	t := newGroupTable(o.GroupKeys, o.GroupOrds, o.Aggs)
	if err := t.fold(ctx, o.Child, o.NoBatch); err != nil {
		return err
	}
	var err error
	o.groups, err = t.results(ctx)
	return err
}

// Next implements Operator.
func (o *HashAggOp) Next(*Ctx) (Row, error) {
	if o.pos >= len(o.groups) {
		return nil, nil
	}
	r := o.groups[o.pos]
	o.pos++
	return r, nil
}

// Close implements Operator.
func (o *HashAggOp) Close() { o.groups = nil }

// StreamAggOp is the streaming aggregate operator: it folds its input in
// arrival order, emitting a group whenever the group keys change. Its input
// must already be grouped (sorted) by the keys. This is the operator the
// Aggify rewrite rule (paper Eq. 6) enforces for order-sensitive custom
// aggregates: the input order is exactly the order Accumulate observes.
type StreamAggOp struct {
	Child     Operator
	GroupKeys []Scalar
	Aggs      []AggInstance

	curKeys  []sqltypes.Value
	curAggs  []Aggregator
	started  bool
	childEOF bool
	emitted  bool // scalar-aggregate case: one row emitted
	bufs     [][]sqltypes.Value
}

// Open implements Operator.
func (o *StreamAggOp) Open(ctx *Ctx) error {
	o.curKeys = nil
	o.curAggs = nil
	o.started = false
	o.childEOF = false
	o.emitted = false
	o.bufs = argBuffers(o.Aggs)
	return o.Child.Open(ctx)
}

// Next implements Operator.
func (o *StreamAggOp) Next(ctx *Ctx) (Row, error) {
	if o.childEOF {
		return nil, nil
	}
	n := 0
	for {
		n++
		if n%1024 == 0 && ctx.Interrupted() {
			return nil, ErrInterrupted
		}
		row, err := o.Child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if row == nil {
			o.childEOF = true
			o.Child.Close()
			if len(o.GroupKeys) == 0 {
				// Scalar aggregate: always exactly one row.
				if o.emitted {
					return nil, nil
				}
				o.emitted = true
				if !o.started {
					o.curAggs = newAggregators(o.Aggs)
				}
				return resultRow(ctx, o.curKeys, o.curAggs)
			}
			if o.started {
				o.started = false
				return resultRow(ctx, o.curKeys, o.curAggs)
			}
			return nil, nil
		}
		var keys []sqltypes.Value
		if len(o.GroupKeys) > 0 {
			keys = make([]sqltypes.Value, len(o.GroupKeys))
			for i, k := range o.GroupKeys {
				if keys[i], err = k(ctx, row); err != nil {
					return nil, err
				}
			}
		}
		var emit Row
		if o.started && len(o.GroupKeys) > 0 && !sqltypes.RowsGroupEqual(keys, o.curKeys) {
			if emit, err = resultRow(ctx, o.curKeys, o.curAggs); err != nil {
				return nil, err
			}
			o.started = false
		}
		if !o.started {
			o.curKeys = keys
			o.curAggs = newAggregators(o.Aggs)
			o.started = true
			if len(o.GroupKeys) == 0 {
				o.emitted = false
			}
		}
		for i := range o.Aggs {
			if err := o.Aggs[i].step(ctx, o.curAggs[i], row, o.bufs[i]); err != nil {
				return nil, err
			}
		}
		if emit != nil {
			return emit, nil
		}
	}
}

// Close implements Operator.
func (o *StreamAggOp) Close() {
	if !o.childEOF {
		o.Child.Close()
	}
}

// ParallelAggOp aggregates one pre-partitioned child subtree per worker —
// typically Filter/Project chains over a ParallelScanOp — each worker
// folding its partition into a private group table under a private context
// (see parallel.go), so scans, predicate evaluation, and accumulation all
// parallelize. Partial states combine with Merge — the parallel path of the
// custom-aggregate contract (§3.1) — so it must only be used for
// order-insensitive aggregates.
//
// Worker partials merge in partition order into worker 0's table, so the
// output group order equals the serial HashAggOp's first-seen order
// (partitions are contiguous in serial input order) and results are
// byte-identical to the serial plan.
type ParallelAggOp struct {
	Parts     []Operator
	GroupKeys []Scalar
	Aggs      []AggInstance
	// GroupOrds, when non-nil (same length as GroupKeys), gives the input
	// column ordinal of every group key for the vectorized fold.
	GroupOrds []int
	// NoBatch forces the row-at-a-time path (set under Options.DisableBatch).
	NoBatch bool

	groups []Row
	pos    int
}

// BufferedRows reports the number of materialized groups.
func (o *ParallelAggOp) BufferedRows() int { return len(o.groups) }

// Open implements Operator.
func (o *ParallelAggOp) Open(ctx *Ctx) error {
	o.groups = nil
	o.pos = 0
	tables, err := o.runPartitioned(ctx)
	if err != nil {
		return err
	}
	for _, t := range tables[1:] {
		if err := tables[0].merge(t); err != nil {
			return err
		}
	}
	o.groups, err = tables[0].results(ctx)
	return err
}

// runPartitioned pulls one pre-partitioned subtree per worker, each folding
// its rows into a private group table under a private context. A partition
// with no rows contributes no partial group. An error in any worker closes
// quit so the others stop promptly.
func (o *ParallelAggOp) runPartitioned(ctx *Ctx) ([]*groupTable, error) {
	tables := make([]*groupTable, len(o.Parts))
	errs := make([]error, len(o.Parts))
	quit := make(chan struct{})
	var abort sync.Once
	stop := func() { abort.Do(func() { close(quit) }) }
	// quit always closes on the way out so the Done relay below never
	// outlives this call.
	defer stop()
	if ctx.Done != nil {
		// Relay a parent-level cancellation (early Rows.Close) into quit.
		go func() {
			select {
			case <-ctx.Done:
				stop()
			case <-quit:
			}
		}()
	}
	var wg sync.WaitGroup
	for w, part := range o.Parts {
		tables[w] = newGroupTable(o.GroupKeys, o.GroupOrds, o.Aggs)
		wg.Add(1)
		go func(w int, part Operator) {
			defer wg.Done()
			wctx, flush := workerCtx(ctx, quit)
			defer flush()
			defer part.Close()
			err := part.Open(wctx)
			if err == nil {
				err = tables[w].fold(wctx, part, o.NoBatch)
			}
			if err != nil {
				errs[w] = err
				stop()
			}
		}(w, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// Next implements Operator.
func (o *ParallelAggOp) Next(*Ctx) (Row, error) {
	if o.pos >= len(o.groups) {
		return nil, nil
	}
	r := o.groups[o.pos]
	o.pos++
	return r, nil
}

// Close implements Operator.
func (o *ParallelAggOp) Close() { o.groups = nil }

// RecursiveCTEOp evaluates a recursive common table expression with UNION
// ALL semantics: the seed runs once; then the recursive branch runs against
// the previous iteration's delta until it yields no rows. It backs the
// paper's §8.1 FOR-loop lifting.
type RecursiveCTEOp struct {
	Seed      Operator
	Recursive Operator
	// Delta is shared with the DeltaScanOp leaves inside Recursive.
	Delta *[]Row
	// MaxIterations caps runaway recursion (0 = default 1e6).
	MaxIterations int

	out []Row
	pos int
}

// BufferedRows reports the rows spooled into the CTE worktable.
func (o *RecursiveCTEOp) BufferedRows() int { return len(o.out) }

// Open implements Operator.
func (o *RecursiveCTEOp) Open(ctx *Ctx) error {
	o.out = nil
	o.pos = 0
	limit := o.MaxIterations
	if limit <= 0 {
		limit = 1_000_000
	}
	seedRows, err := Drain(ctx, o.Seed)
	if err != nil {
		return err
	}
	o.out = append(o.out, seedRows...)
	delta := seedRows
	for iter := 0; len(delta) > 0; iter++ {
		if iter >= limit {
			return fmt.Errorf("exec: recursive CTE exceeded %d iterations", limit)
		}
		if ctx.Interrupted() {
			return ErrInterrupted
		}
		*o.Delta = delta
		next, err := Drain(ctx, o.Recursive)
		if err != nil {
			return err
		}
		o.out = append(o.out, next...)
		delta = next
	}
	return nil
}

// Next implements Operator.
func (o *RecursiveCTEOp) Next(*Ctx) (Row, error) {
	if o.pos >= len(o.out) {
		return nil, nil
	}
	r := o.out[o.pos]
	o.pos++
	return r, nil
}

// Close implements Operator.
func (o *RecursiveCTEOp) Close() { o.out = nil }
