package exec

import (
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// This file defines the vectorized half of the operator contract: blocks of
// row references and the optional BatchOperator interface. The executor
// stays a pull model — a batch consumer calls NextBatch instead of Next and
// receives ~DefaultBatchSize rows per call — so the per-row costs the paper
// attributes to cursor-style iteration (interface dispatch, per-row closure
// evaluation) are paid once per batch instead.

// DefaultBatchSize is the target number of rows per batch. It matches the
// executor's long-standing interrupt-check stride, so a cancelled query
// stops within one batch on either execution path.
const DefaultBatchSize = 1024

// Batch is a block of row references: the same immutable rows the row path
// hands out, not copies. A producer reuses only the Rows slice across
// NextBatch calls and never overwrites a row it has referenced, so a
// consumer may keep any Row it received — exactly as on the row path — but
// must not keep the Rows slice itself past the next NextBatch (or Close)
// call on that operator.
type Batch struct {
	Rows []Row
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// BatchOperator is the vectorized extension of Operator. NextBatch returns
// the next non-empty block of rows, or nil at end of stream.
// Implementations must check Ctx.Interrupted at every batch boundary —
// batch consumers bypass Next and its per-row interrupt stride entirely.
type BatchOperator interface {
	Operator
	NextBatch(ctx *Ctx) (*Batch, error)
}

// batchCapable is implemented by operators whose NextBatch is native end to
// end (pass-through transformers report their child's capability). CanBatch
// consults it so consumers and the planner agree on which plans take the
// vectorized path.
type batchCapable interface {
	BatchCapable() bool
}

// CanBatch reports whether op produces batches natively. Consumers use it
// to pick the vectorized path only when every operator beneath supports it.
func CanBatch(op Operator) bool {
	if bc, ok := op.(batchCapable); ok {
		return bc.BatchCapable()
	}
	return false
}

// rowCursor is a streaming storage cursor (storage.Cursor for scans,
// storage.RangeCursor for range seeks): each Next call hands up to max
// visible rows to fn and returns how many it handed out.
type rowCursor interface {
	Next(stats *storage.Stats, max int, fn func(row []sqltypes.Value)) int
}

// rowBuffer is the one refill buffer a streaming leaf serves both Next and
// NextBatch from. Each refill pulls up to DefaultBatchSize row references
// off the cursor; Next hands them out one at a time, NextBatch as a batch.
// Rows are storage's own immutable row slices and are never copied, so the
// batch contract's "rows may be kept" rule holds by construction.
type rowBuffer struct {
	cur  rowCursor // nil: the stream is empty
	rows []Row
	pos  int
	eof  bool
	out  Batch
}

// open points the buffer at a fresh cursor, keeping the row slice's capacity.
func (b *rowBuffer) open(cur rowCursor) {
	b.cur = cur
	b.rows = b.rows[:0]
	b.pos = 0
	b.eof = cur == nil
}

// refill replaces the buffered rows with the cursor's next block, marking
// end of stream when the cursor has none left.
func (b *rowBuffer) refill(ctx *Ctx) error {
	if ctx.Interrupted() {
		return ErrInterrupted
	}
	rows := b.rows[:0]
	b.cur.Next(ctx.Stats, DefaultBatchSize, func(row []sqltypes.Value) {
		rows = append(rows, row)
	})
	b.rows = rows
	b.pos = 0
	b.eof = len(rows) == 0
	return nil
}

func (b *rowBuffer) next(ctx *Ctx) (Row, error) {
	for b.pos >= len(b.rows) {
		if b.eof {
			return nil, nil
		}
		if err := b.refill(ctx); err != nil {
			return nil, err
		}
	}
	r := b.rows[b.pos]
	b.pos++
	return r, nil
}

// nextBatch hands out every buffered row not yet returned by next as one
// batch, refilling first when none are left.
func (b *rowBuffer) nextBatch(ctx *Ctx) (*Batch, error) {
	if b.pos >= len(b.rows) {
		if b.eof {
			return nil, nil
		}
		if err := b.refill(ctx); err != nil || b.eof {
			return nil, err
		}
	}
	b.out.Rows = b.rows[b.pos:]
	b.pos = len(b.rows)
	return &b.out, nil
}

func (b *rowBuffer) close() {
	b.cur = nil
	b.rows = nil
}
