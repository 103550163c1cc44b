package exec

import (
	"fmt"
	"sync"

	"aggify/internal/storage"
)

// This file implements the plumbing of intra-query parallelism: worker
// contexts and the range-partitioned scan whose partitions ParallelAggOp
// (aggop.go) pulls on worker goroutines, combining partial aggregates with
// the Merge half of the custom-aggregate contract (§3.1).
//
// Concurrency rules:
//
//   - Each worker runs its partition subtree under a private Ctx copy with a
//     worker-local storage.Stats, flushed into the parent's Stats exactly
//     once at worker exit. Per-node instrumentation deltas therefore stay
//     serially consistent inside each worker, and the
//     exclusive-reads-sum == session-delta invariant holds.
//   - The worker Ctx's Done channel is the aggregation's quit channel:
//     closing it cancels workers promptly even mid-scan. The parent's
//     Interrupt channel is inherited so session interrupts reach workers
//     directly.

// workerCtx derives a worker execution context from the consumer's: private
// stats, quit as the local Done. It returns the context and a flush that
// folds the worker's accumulated stats into the parent context.
func workerCtx(parent *Ctx, quit <-chan struct{}) (*Ctx, func()) {
	w := *parent
	ws := &storage.Stats{}
	w.Stats = ws
	w.Done = quit
	flush := func() {
		if parent.Stats != nil {
			parent.Stats.AddSnapshot(ws.Snapshot())
		}
	}
	return &w, flush
}

// ScanSplit owns one frozen snapshot of a table's slot range and parcels it
// into NParts contiguous streaming cursors. All ParallelScanOp siblings of
// one execution share a split, so the table is locked exactly once, and
// partition i always holds rows strictly before partition i+1 in serial scan
// order — the property that lets parallel plans reproduce serial output
// orders deterministically. Rows stream out of each cursor on demand (each
// partition charges its own logical reads to its worker's stats), so a
// parallel scan never materializes the table.
type ScanSplit struct {
	// Table is the base table to snapshot; when nil, Name is resolved
	// through Ctx.Temp at first Open (table variables, temp tables).
	Table *storage.Table
	// Name is the late-bound table name used when Table is nil.
	Name string
	// NParts is the number of contiguous partitions.
	NParts int

	once sync.Once
	curs []*storage.Cursor
	err  error
}

// load freezes the slot snapshot and carves the partition cursors once.
func (s *ScanSplit) load(ctx *Ctx) error {
	s.once.Do(func() {
		tab := s.Table
		if tab == nil {
			if ctx.Temp == nil {
				s.err = fmt.Errorf("exec: no temp-table resolver for %s", s.Name)
				return
			}
			t, ok := ctx.Temp(s.Name)
			if !ok {
				s.err = fmt.Errorf("exec: undeclared table variable %s", s.Name)
				return
			}
			tab = t
		}
		n := s.NParts
		if n < 1 {
			n = 1
		}
		s.curs = tab.SplitCursors(ctx.Snap, n)
	})
	return s.err
}

// cursor returns partition i's streaming cursor.
func (s *ScanSplit) cursor(ctx *Ctx, i int) (*storage.Cursor, error) {
	if err := s.load(ctx); err != nil {
		return nil, err
	}
	return s.curs[i], nil
}

// ParallelScanOp is one partition of a range-partitioned table scan. The
// planner instantiates the subtree below a ParallelAggOp once per worker;
// each instance carries the same ScanSplit and its own Part index. Like
// ScanOp it streams its partition through a rowBuffer, so a batched consumer
// (the vectorized aggregation fold) pulls row-reference batches straight
// off the partition's cursor.
type ParallelScanOp struct {
	Split *ScanSplit
	Part  int

	buf rowBuffer
}

// Open implements Operator.
func (o *ParallelScanOp) Open(ctx *Ctx) error {
	cur, err := o.Split.cursor(ctx, o.Part)
	if err != nil {
		return err
	}
	cur.Reset()
	o.buf.open(cur)
	return nil
}

// Next implements Operator.
func (o *ParallelScanOp) Next(ctx *Ctx) (Row, error) { return o.buf.next(ctx) }

// NextBatch implements BatchOperator.
func (o *ParallelScanOp) NextBatch(ctx *Ctx) (*Batch, error) { return o.buf.nextBatch(ctx) }

// BatchCapable implements batchCapable.
func (o *ParallelScanOp) BatchCapable() bool { return true }

// Close implements Operator.
func (o *ParallelScanOp) Close() { o.buf.close() }
