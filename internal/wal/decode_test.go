package wal

import (
	"encoding/binary"
	"strings"
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/txn"
)

// hugeCount is an element count no real payload can carry: allocating for
// it up front would exhaust memory.
const hugeCount = 1 << 40

// TestDecodeRejectsOversizedCounts feeds every element count the record and
// checkpoint decoders read a 2^40 value inside a short payload. Each must be
// rejected as corrupt before any allocation sized by the count.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	uv := binary.AppendUvarint
	str := func(buf []byte, s string) []byte { return appendString(buf, s) }
	records := map[string][]byte{
		"commit mutations":    uv(uv([]byte{recCommit}, 1), hugeCount),
		"create-table column": uv(str(uv([]byte{recCreateTable}, 1), "t"), hugeCount),
	}
	for name, payload := range records {
		payload = append(payload, 0, 0, 0)
		if _, err := DecodeRecord(payload); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: DecodeRecord err = %v, want count rejection", name, err)
		}
	}
	// One table named "t" with the given prefix of its sections.
	table := func(sections ...uint64) []byte {
		buf := str(uv(uv(nil, 1), 1), "t")
		for _, n := range sections {
			buf = uv(buf, n)
		}
		return buf
	}
	checkpoints := map[string][]byte{
		"tables":  uv(uv(nil, 1), hugeCount),
		"columns": table(hugeCount),
		"indexes": table(0, hugeCount),
		"slots":   table(0, 0, hugeCount),
	}
	for name, payload := range checkpoints {
		payload = append(payload, 0, 0, 0)
		if _, err := decodeCheckpoint(payload, false); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("checkpoint %s: err = %v, want count rejection", name, err)
		}
	}
}

func seedRecords() [][]byte {
	return [][]byte{
		EncodeCommit(42, []txn.Mutation{
			{Table: "orders", Op: txn.MutInsert, Rid: 0, Row: []sqltypes.Value{sqltypes.NewInt(7), sqltypes.NewString("x")}},
			{Table: "orders", Op: txn.MutUpdate, Rid: 3, Row: []sqltypes.Value{sqltypes.NewFloat(1.5), sqltypes.Null}},
			{Table: "orders", Op: txn.MutDelete, Rid: 9},
			{Table: "orders", Op: txn.MutTruncate},
		}),
		EncodeCreateTable(7, "t", []ColumnDef{
			{Name: "a", Type: sqltypes.Type{ID: sqltypes.TInt}},
			{Name: "b", Type: sqltypes.Type{ID: sqltypes.TVarChar, Prec: 30}},
		}),
		EncodeCreateIndex(8, "t", "a", true),
		EncodeDropTable(9, "t"),
	}
}

// FuzzDecodeRecord checks that DecodeRecord never panics or over-allocates
// on arbitrary payloads (a torn or corrupt log record must surface as an
// error), and that every record it accepts re-encodes to a payload it
// accepts again.
func FuzzDecodeRecord(f *testing.F) {
	for _, p := range seedRecords() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		var again []byte
		switch r := rec.(type) {
		case *CommitRecord:
			again = EncodeCommit(r.Epoch, r.Muts)
		case *CreateTableRecord:
			again = EncodeCreateTable(r.Epoch, r.Name, r.Cols)
		case *CreateIndexRecord:
			again = EncodeCreateIndex(r.Epoch, r.Table, r.Column, r.Ordered)
		case *DropTableRecord:
			again = EncodeDropTable(r.Epoch, r.Name)
		default:
			t.Fatalf("decoded unexpected type %T", rec)
		}
		if _, err := DecodeRecord(again); err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", rec, err)
		}
	})
}

// FuzzDecodeCheckpoint is FuzzDecodeRecord for checkpoint payloads, in
// both the current and the version-1 layout.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(encodeCheckpoint(&Checkpoint{Epoch: 1}), false)
	f.Add(encodeCheckpoint(&Checkpoint{
		Epoch: 99,
		Tables: []TableImage{{
			Name:    "t",
			Cols:    []ColumnDef{{Name: "a", Type: sqltypes.Type{ID: sqltypes.TInt}}},
			Indexes: []IndexDef{{Column: "a", Ordered: true}},
			Slots:   [][]sqltypes.Value{{sqltypes.NewInt(1)}, nil, {sqltypes.Null}},
		}},
	}), false)
	f.Fuzz(func(t *testing.T, payload []byte, v1 bool) {
		cp, err := decodeCheckpoint(payload, v1)
		if err != nil {
			return
		}
		if _, err := decodeCheckpoint(encodeCheckpoint(cp), false); err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
	})
}
