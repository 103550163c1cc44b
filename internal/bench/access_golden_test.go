package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aggify/internal/tpch"
)

var updateAccess = flag.Bool("update", false, "rewrite testdata/tpch_access.golden with the current output")

// TestTPCHAccessGolden pins, for every TPC-H workload query in every mode
// at SF 0.002 with a 30-key driver limit, the result (row count and
// order-insensitive checksum) and the storage work the chosen plans do:
// logical reads, index seeks and worktable writes. The counts are
// deterministic, so any planner change that alters an access path shows up
// here as a diff. Regenerate intentional changes with:
//
//	go test -run TestTPCHAccessGolden -update ./internal/bench
func TestTPCHAccessGolden(t *testing.T) {
	env, err := LoadTPCH(testSF)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, q := range tpch.Queries() {
		for _, mode := range []Mode{Original, Aggify, AggifyPlus} {
			r, err := env.RunTPCH(q, mode, 30, 2*time.Minute)
			if err != nil {
				t.Fatalf("%s %s: %v", q.ID, mode, err)
			}
			if r.TimedOut {
				t.Fatalf("%s %s timed out", q.ID, mode)
			}
			fmt.Fprintf(&b, "%s %-8s rows=%d checksum=%016x reads=%d seeks=%d worktable_writes=%d\n",
				q.ID, mode, r.Rows, r.Checksum, r.Stats.LogicalReads, r.Stats.IndexSeeks, r.Stats.WorktableWrites)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "tpch_access.golden")
	if *updateAccess {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("access counts differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestTPCHPlansGolden pins, for every TPC-H workload query in Aggify+ mode
// at SF 0.002 with a 30-key driver limit, the rewrite rules that fired and
// the physical plan tree — the decorrelated, set-oriented shapes the
// Aggify+ gains come from. Regenerate intentional changes with:
//
//	go test -run TestTPCHPlansGolden -update ./internal/bench
func TestTPCHPlansGolden(t *testing.T) {
	env, err := LoadTPCH(testSF)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, q := range tpch.Queries() {
		driver, err := env.rewriteDriver(q.Driver(30), AggifyPlus)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		p, err := env.Eng.NewSession().PlanQuery(driver, nil)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		fmt.Fprintf(&b, "== %s\nrewrites: %s\n%s", q.ID, strings.Join(p.Rewrites, ", "), p.Explain)
	}
	got := b.String()
	path := filepath.Join("testdata", "tpch_plans.golden")
	if *updateAccess {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("plans differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
