package exec

import (
	"errors"
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"aggify/internal/testutil"
)

// errOp emits its rows then fails: on Open when failOpen is set, otherwise
// on the Next call after the last row.
type errOp struct {
	rows     []Row
	failOpen bool
	err      error
	pos      int
}

func (o *errOp) Open(*Ctx) error {
	o.pos = 0
	if o.failOpen {
		return o.err
	}
	return nil
}

func (o *errOp) Next(*Ctx) (Row, error) {
	if o.pos >= len(o.rows) {
		return nil, o.err
	}
	r := o.rows[o.pos]
	o.pos++
	return r, nil
}

func (o *errOp) Close() {}

func seqRows(lo, hi int64) []Row {
	var out []Row
	for i := lo; i < hi; i++ {
		out = append(out, intRow(i))
	}
	return out
}

// TestParallelAggWorkerErrors: an error in one worker's Open or Next
// surfaces from ParallelAggOp.Open, and every worker is joined.
func TestParallelAggWorkerErrors(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		part Operator
	}{
		{"open", &errOp{failOpen: true, err: boom}},
		{"next", &errOp{rows: seqRows(0, 10), err: boom}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := &ParallelAggOp{
				Parts: []Operator{&BufferScanOp{Rows: seqRows(0, 5)}, tc.part},
				Aggs:  []AggInstance{{Spec: builtinAgg(t, "count"), Star: true}},
			}
			_, err := Drain(&Ctx{}, op)
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
		})
	}
}

func TestScanSplitPartitions(t *testing.T) {
	tab := storage.NewTable("t", storage.NewSchema(storage.Col("v", sqltypes.Int)))
	for i := int64(0); i < 10; i++ {
		_ = tab.Insert(nil, intRow(i))
	}
	split := &ScanSplit{Table: tab, NParts: 3}
	var stats storage.Stats
	ctx := &Ctx{Stats: &stats}
	var all []Row
	sizes := []int{4, 4, 2}
	for i := 0; i < 3; i++ {
		rows, err := Drain(ctx, &ParallelScanOp{Split: split, Part: i})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != sizes[i] {
			t.Fatalf("part %d has %d rows, want %d", i, len(rows), sizes[i])
		}
		all = append(all, rows...)
	}
	// Contiguous partitions must concatenate back into serial scan order.
	for i, r := range all {
		if r[0].Int() != int64(i) {
			t.Fatalf("row %d = %v, want %d", i, r[0], i)
		}
	}
	// The shared snapshot charges the table's reads exactly once.
	if got := stats.Snapshot().LogicalReads; got != 10 {
		t.Fatalf("logical reads = %d, want 10 (snapshot charged once)", got)
	}
}

func TestScanSplitLateBound(t *testing.T) {
	tab := storage.NewTable("@t", storage.NewSchema(storage.Col("v", sqltypes.Int)))
	for i := int64(0); i < 6; i++ {
		_ = tab.Insert(nil, intRow(i))
	}
	ctx := &Ctx{Temp: func(name string) (*storage.Table, bool) {
		if name == "@t" {
			return tab, true
		}
		return nil, false
	}}
	split := &ScanSplit{Name: "@t", NParts: 2}
	for i := 0; i < 2; i++ {
		rows, err := Drain(ctx, &ParallelScanOp{Split: split, Part: i})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("part %d has %d rows, want 3", i, len(rows))
		}
	}
	missing := &ScanSplit{Name: "@nope", NParts: 1}
	if _, err := Drain(ctx, &ParallelScanOp{Split: missing}); err == nil {
		t.Fatal("undeclared late-bound table should error")
	}
}

func TestParallelAggPartsMatchesSerial(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	tab := storage.NewTable("t", storage.NewSchema(
		storage.Col("k", sqltypes.Int), storage.Col("v", sqltypes.Int)))
	for i := int64(0); i < 5000; i++ {
		_ = tab.Insert(nil, intRow(i%13, i))
	}
	mk := func() []AggInstance {
		return []AggInstance{
			{Spec: builtinAgg(t, "count"), Star: true},
			{Spec: builtinAgg(t, "sum"), Args: []Scalar{ColScalar(1)}},
			{Spec: builtinAgg(t, "min"), Args: []Scalar{ColScalar(1)}},
			{Spec: builtinAgg(t, "max"), Args: []Scalar{ColScalar(1)}},
		}
	}
	serial := &HashAggOp{Child: &ScanOp{Table: tab}, GroupKeys: []Scalar{ColScalar(0)}, Aggs: mk()}
	const workers = 4
	split := &ScanSplit{Table: tab, NParts: workers}
	parts := make([]Operator, workers)
	for i := range parts {
		parts[i] = &ParallelScanOp{Split: split, Part: i}
	}
	parallel := &ParallelAggOp{Parts: parts, GroupKeys: []Scalar{ColScalar(0)}, Aggs: mk()}
	ctx := &Ctx{Stats: &storage.Stats{}}
	sr, err := Drain(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Drain(&Ctx{Stats: &storage.Stats{}}, parallel)
	if err != nil {
		t.Fatal(err)
	}
	// Contiguous partitions merged in partition order must reproduce the
	// serial first-seen group order byte for byte.
	if len(sr) != len(pr) {
		t.Fatalf("group counts differ: %d vs %d", len(sr), len(pr))
	}
	for i := range sr {
		for j := range sr[i] {
			if !sqltypes.GroupEqual(sr[i][j], pr[i][j]) {
				t.Fatalf("row %d col %d: serial %v vs parallel %v", i, j, sr[i], pr[i])
			}
		}
	}
}

// TestParallelAggDoneCancels checks that a parent-level cancellation reaches
// partitioned aggregation workers (the relay installed in runPartitioned).
func TestParallelAggDoneCancels(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	done := make(chan struct{})
	close(done)
	op := &ParallelAggOp{
		Parts: []Operator{
			&BufferScanOp{Rows: seqRows(0, 100000)},
			&BufferScanOp{Rows: seqRows(100000, 200000)},
		},
		GroupKeys: []Scalar{ColScalar(0)},
		Aggs:      []AggInstance{{Spec: builtinAgg(t, "count"), Star: true}},
	}
	_, err := Drain(&Ctx{Done: done}, op)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}
