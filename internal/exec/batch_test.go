package exec

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"aggify/internal/testutil"
)

// mkAggs builds count(*)+count(v)+sum(v)+avg(v)+min(v)+max(v) instances over
// column ord, with ArgOrds resolved so the batch fold vectorizes.
func mkAggs(ord int) []AggInstance {
	specs := BuiltinAggs()
	col := ColScalar(ord)
	return []AggInstance{
		{Spec: specs["count"], Star: true},
		{Spec: specs["count"], Args: []Scalar{col}, ArgOrds: []int{ord}},
		{Spec: specs["sum"], Args: []Scalar{col}, ArgOrds: []int{ord}},
		{Spec: specs["avg"], Args: []Scalar{col}, ArgOrds: []int{ord}},
		{Spec: specs["min"], Args: []Scalar{col}, ArgOrds: []int{ord}},
		{Spec: specs["max"], Args: []Scalar{col}, ArgOrds: []int{ord}},
	}
}

// aggTable builds a two-column table: k = i%7, v = NULL every 5th row else i.
func aggTable(t *testing.T, rows int64, allNull bool) *storage.Table {
	t.Helper()
	tab := storage.NewTable("t", storage.NewSchema(
		storage.Col("k", sqltypes.Int), storage.Col("v", sqltypes.Int)))
	for i := int64(0); i < rows; i++ {
		v := sqltypes.NewInt(i)
		if allNull || i%5 == 0 {
			v = sqltypes.Null
		}
		if err := tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(i % 7), v}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestHashAggBatchMatchesRow drives the same grouped aggregation through the
// vectorized fold and the row path and requires byte-identical output —
// including group order and NULL handling, across row counts that are exact
// batch multiples, off-by-one, and empty.
func TestHashAggBatchMatchesRow(t *testing.T) {
	for _, rows := range []int64{0, 1, DefaultBatchSize, DefaultBatchSize + 1, 2 * DefaultBatchSize, 3000} {
		tab := aggTable(t, rows, false)
		run := func(noBatch bool) []Row {
			op := &HashAggOp{
				Child:     &ScanOp{Table: tab},
				GroupKeys: []Scalar{ColScalar(0)},
				GroupOrds: []int{0},
				Aggs:      mkAggs(1),
				NoBatch:   noBatch,
			}
			out, err := Drain(&Ctx{Stats: &storage.Stats{}}, op)
			if err != nil {
				t.Fatalf("rows=%d noBatch=%v: %v", rows, noBatch, err)
			}
			return out
		}
		batch, row := run(false), run(true)
		if len(batch) != len(row) {
			t.Fatalf("rows=%d: %d batch groups vs %d row groups", rows, len(batch), len(row))
		}
		for i := range batch {
			if !sqltypes.RowsGroupEqual(batch[i], row[i]) {
				t.Fatalf("rows=%d group %d: batch %v != row %v", rows, i, batch[i], row[i])
			}
		}
	}
}

// TestHashAggBatchAllNulls pins NULL handling on both paths: over an
// aggregated column that is entirely NULL (count skips all, sum/min/max/avg
// return NULL) and over one that is NULL every 5th row (count(v) skips
// exactly those rows).
func TestHashAggBatchAllNulls(t *testing.T) {
	for _, tc := range []struct {
		allNull   bool
		wantCount int64
	}{{true, 0}, {false, 1600}} {
		tab := aggTable(t, 2000, tc.allNull)
		for _, noBatch := range []bool{false, true} {
			op := &HashAggOp{Child: &ScanOp{Table: tab}, Aggs: mkAggs(1), NoBatch: noBatch}
			out, err := Drain(&Ctx{Stats: &storage.Stats{}}, op)
			if err != nil || len(out) != 1 {
				t.Fatalf("allNull=%v noBatch=%v: %v %d", tc.allNull, noBatch, err, len(out))
			}
			r := out[0]
			if r[0].Int() != 2000 { // count(*)
				t.Fatalf("allNull=%v noBatch=%v: count(*) = %v", tc.allNull, noBatch, r[0])
			}
			if r[1].Int() != tc.wantCount { // count(v) skips NULLs
				t.Fatalf("allNull=%v noBatch=%v: count(v) = %v, want %d", tc.allNull, noBatch, r[1], tc.wantCount)
			}
			for i := 2; i < 6; i++ { // sum/avg/min/max: NULL only over all-NULL
				if r[i].IsNull() != tc.allNull {
					t.Fatalf("allNull=%v noBatch=%v: agg %d = %v", tc.allNull, noBatch, i, r[i])
				}
			}
		}
	}
}

// TestScanStreamsEarlyStop is the satellite regression test: pulling one row
// (TOP 1) off a large table must not materialize — or charge reads for —
// more than one cursor refill.
func TestScanStreamsEarlyStop(t *testing.T) {
	tab := aggTable(t, 10_000, false)
	stats := &storage.Stats{}
	ctx := &Ctx{Stats: stats}
	scan := &ScanOp{Table: tab}
	top := &TopOp{Child: scan, N: ConstScalar(sqltypes.NewInt(1))}
	rows, err := Drain(ctx, top)
	if err != nil || len(rows) != 1 {
		t.Fatalf("top 1: %v %d", err, len(rows))
	}
	if reads := stats.Snapshot().LogicalReads; reads > DefaultBatchSize {
		t.Fatalf("TOP 1 over 10k rows charged %d logical reads, want <= %d", reads, DefaultBatchSize)
	}
}

func TestScanBufferedRowsBounded(t *testing.T) {
	tab := aggTable(t, 10_000, false)
	scan := &ScanOp{Table: tab}
	ctx := &Ctx{Stats: &storage.Stats{}}
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	if _, err := scan.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if n := scan.BufferedRows(); n > DefaultBatchSize {
		t.Fatalf("scan buffered %d rows after one Next, want <= %d", n, DefaultBatchSize)
	}
}

// interruptingBatchOp yields batches forever and closes the interrupt
// channel right before handing out batch #1 — so only a consumer that
// checks Interrupted at every batch boundary stops.
type interruptingBatchOp struct {
	interrupt chan struct{}
	batch     Batch
	served    int
}

func (o *interruptingBatchOp) Open(*Ctx) error { o.served = 0; return nil }
func (o *interruptingBatchOp) Next(*Ctx) (Row, error) {
	return nil, errors.New("row path must not be used")
}
func (o *interruptingBatchOp) NextBatch(*Ctx) (*Batch, error) {
	if o.batch.Rows == nil {
		o.batch.Rows = seqRows(0, DefaultBatchSize)
	}
	o.served++
	if o.served == 1 {
		close(o.interrupt)
	}
	return &o.batch, nil
}
func (o *interruptingBatchOp) BatchCapable() bool { return true }
func (o *interruptingBatchOp) Close()             {}

// TestBatchFoldInterrupt pins the satellite-3 contract: the vectorized fold
// bypasses Next's per-row interrupt stride, so it must check cancellation at
// every batch boundary itself.
func TestBatchFoldInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	op := &HashAggOp{
		Child: &interruptingBatchOp{interrupt: interrupt},
		Aggs:  []AggInstance{{Spec: BuiltinAggs()["count"], Star: true}},
	}
	_, err := Drain(&Ctx{Interrupt: interrupt, Stats: &storage.Stats{}}, op)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

// TestParallelAggBatchWorkers runs the partitioned (batch-fold-per-worker)
// parallel aggregation against the serial row path and requires
// byte-identical groups — partitions stream through SplitCursors, so this
// also covers the ScanSplit rewrite.
func TestParallelAggBatchWorkers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	tab := aggTable(t, 9_000, false)
	split := &ScanSplit{Table: tab, NParts: 4}
	parts := make([]Operator, 4)
	for i := range parts {
		parts[i] = &ParallelScanOp{Split: split, Part: i}
	}
	par := &ParallelAggOp{
		Parts:     parts,
		GroupKeys: []Scalar{ColScalar(0)},
		GroupOrds: []int{0},
		Aggs:      mkAggs(1),
	}
	serial := &HashAggOp{
		Child:     &ScanOp{Table: tab},
		GroupKeys: []Scalar{ColScalar(0)},
		Aggs:      mkAggs(1),
		NoBatch:   true,
	}
	got, err := Drain(&Ctx{Stats: &storage.Stats{}}, par)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Drain(&Ctx{Stats: &storage.Stats{}}, serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d parallel groups vs %d serial", len(got), len(want))
	}
	for i := range got {
		if !sqltypes.RowsGroupEqual(got[i], want[i]) {
			t.Fatalf("group %d: parallel %v != serial %v", i, got[i], want[i])
		}
	}
}

// contractTable builds a table longer than two batches with NULLs in it:
// id is unique (ordered index), g = id%2 (hash index, so one key matches
// more than a batch of rows), v is NULL every 7th row, s is a string.
func contractTable(t *testing.T) *storage.Table {
	t.Helper()
	tab := storage.NewTable("c", storage.NewSchema(
		storage.Col("id", sqltypes.Int), storage.Col("g", sqltypes.Int),
		storage.Col("v", sqltypes.Int), storage.Col("s", sqltypes.VarChar(16))))
	for i := int64(0); i < 2*DefaultBatchSize+700; i++ {
		v := sqltypes.NewInt(i * 3)
		if i%7 == 0 {
			v = sqltypes.Null
		}
		row := []sqltypes.Value{sqltypes.NewInt(i), sqltypes.NewInt(i % 2), v, sqltypes.NewString(fmt.Sprint("s", i))}
		if err := tab.Insert(nil, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex("g"); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateOrderedIndex("id"); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestBatchContract pins the batch ownership rule for every batch producer:
// a consumer may keep the rows of every NextBatch call without copying
// them, and after EOF the kept rows equal what Next delivers, byte for byte.
func TestBatchContract(t *testing.T) {
	tab := contractTable(t)
	vNotNull := func(_ *Ctx, r Row) (sqltypes.Value, error) { return sqltypes.NewBool(!r[2].IsNull()), nil }
	plusOne := func(_ *Ctx, r Row) (sqltypes.Value, error) {
		return sqltypes.Apply(sqltypes.OpAdd, r[2], sqltypes.NewInt(1))
	}
	split := func() *ScanSplit { return &ScanSplit{Table: tab, NParts: 2} }
	temp := func(name string) (*storage.Table, bool) { return tab, name == "#c" }
	producers := map[string]func() Operator{
		"Scan":         func() Operator { return &ScanOp{Table: tab} },
		"IndexSeek":    func() Operator { return &IndexSeekOp{Table: tab, Column: "g", Key: ConstScalar(sqltypes.NewInt(1))} },
		"RangeSeek":    func() Operator { return &RangeSeekOp{Table: tab, Column: "id", Lo: ConstScalar(sqltypes.NewInt(100))} },
		"LateScan":     func() Operator { return &LateScanOp{Name: "#c"} },
		"ParallelScan": func() Operator { return &ParallelScanOp{Split: split(), Part: 1} },
		"Filter":       func() Operator { return &FilterOp{Child: &ScanOp{Table: tab}, Pred: vNotNull} },
		"Project": func() Operator {
			return &ProjectOp{Child: &ScanOp{Table: tab}, Exprs: []Scalar{plusOne, ColScalar(3), ColScalar(2)}}
		},
		"Project/Filter/IndexSeek": func() Operator {
			seek := &IndexSeekOp{Table: tab, Column: "g", Key: ConstScalar(sqltypes.NewInt(0))}
			return &ProjectOp{Child: &FilterOp{Child: seek, Pred: vNotNull}, Exprs: []Scalar{plusOne, ColScalar(0)}}
		},
	}
	encode := func(rows []Row) []byte {
		var buf []byte
		for _, r := range rows {
			buf = storage.AppendRow(buf, r)
		}
		return buf
	}
	for name, mk := range producers {
		ctx := &Ctx{Stats: &storage.Stats{}, Temp: temp}
		op := mk()
		if !CanBatch(op) {
			t.Fatalf("%s: not batch-capable", name)
		}
		if err := op.Open(ctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var kept []Row
		batches := 0
		for {
			b, err := op.(BatchOperator).NextBatch(ctx)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if b == nil {
				break
			}
			batches++
			kept = append(kept, b.Rows...)
		}
		op.Close()
		want, err := Drain(ctx, mk())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if batches < 2 {
			t.Fatalf("%s: %d batches, want several", name, batches)
		}
		if len(kept) != len(want) || !bytes.Equal(encode(kept), encode(want)) {
			t.Fatalf("%s: %d kept batch rows differ from %d Next rows", name, len(kept), len(want))
		}
	}
}

// TestBatchAllocsIndependentOfWidth builds a fresh count(*) → Filter →
// IndexSeek tree per execution, as Plan.Build does per statement, over a
// 2-column and a 16-column table holding the same matching rows. Batches
// reference rows instead of copying their values, so allocations per
// execution must not depend on the row width.
func TestBatchAllocsIndependentOfWidth(t *testing.T) {
	allocs := func(width int) float64 {
		cols := make([]storage.Column, width)
		for i := range cols {
			cols[i] = storage.Col(fmt.Sprint("c", i), sqltypes.Int)
		}
		tab := storage.NewTable("w", storage.NewSchema(cols...))
		for i := int64(0); i < 3000; i++ {
			row := make([]sqltypes.Value, width)
			for j := range row {
				row[j] = sqltypes.NewInt(i + int64(j))
			}
			row[0] = sqltypes.NewInt(i % 2)
			if err := tab.Insert(nil, row); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.CreateIndex("c0"); err != nil {
			t.Fatal(err)
		}
		half := func(_ *Ctx, r Row) (sqltypes.Value, error) { return sqltypes.NewBool(r[1].Int()%4 != 0), nil }
		ctx := &Ctx{Stats: &storage.Stats{}}
		return testing.AllocsPerRun(20, func() {
			op := &HashAggOp{
				Child: &FilterOp{
					Child: &IndexSeekOp{Table: tab, Column: "c0", Key: ConstScalar(sqltypes.NewInt(1))},
					Pred:  half,
				},
				Aggs: []AggInstance{{Spec: BuiltinAggs()["count"], Star: true}},
			}
			rows, err := Drain(ctx, op)
			if err != nil || len(rows) != 1 || rows[0][0].Int() != 750 {
				t.Fatalf("width %d: rows=%v err=%v", width, rows, err)
			}
		})
	}
	narrow, wide := allocs(2), allocs(16)
	if narrow != wide {
		t.Fatalf("allocations per execution: %v over 2 columns, %v over 16; want equal", narrow, wide)
	}
}
