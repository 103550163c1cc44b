package plan

import (
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// parseExpr parses a scalar expression through the real parser so tests
// exercise the exact shapes the rewriter sees.
func parseExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	q := parser.MustParse("select " + src)[0].(*ast.QueryStmt).Query
	return q.Items[0].Expr
}

func foldString(t *testing.T, src string) (string, int) {
	t.Helper()
	out, n := foldExpr(parseExpr(t, src))
	return out.String(), n
}

func TestFoldExprConstants(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"1 + 2 * 3", "7"},
		{"-(1 + 2)", "-3"},
		{"1 < 2", "TRUE"},
		{"'a' = 'b'", "FALSE"},
		{"null is null", "TRUE"},
		{"null is not null", "FALSE"},
		{"2 between 1 and 3", "TRUE"},
		{"not (1 = 1)", "FALSE"},
		{"'foo' || 'bar'", "'foobar'"},
		// Kleene three-valued logic: the fold must agree with the runtime.
		{"null and (1 = 0)", "FALSE"},
		{"null or (1 = 1)", "TRUE"},
		{"null and (1 = 1)", "NULL"},
		{"null or (1 = 0)", "NULL"},
		// NULL propagation through comparisons and arithmetic.
		{"null + 1", "NULL"},
		{"null = null", "NULL"},
		// CASE arm elimination.
		{"case when 1 = 0 then 'a' when 1 = 1 then 'b' else 'c' end", "'b'"},
		{"case when 1 = 0 then 'a' end", "NULL"},
	}
	for _, c := range cases {
		got, n := foldString(t, c.src)
		if got != c.want {
			t.Errorf("fold(%s) = %s, want %s", c.src, got, c.want)
		}
		if n == 0 {
			t.Errorf("fold(%s) fired no collapses", c.src)
		}
	}
}

func TestFoldExprLeavesErrorsAndColumns(t *testing.T) {
	// Expressions whose evaluation errors must survive untouched so the
	// runtime raises the same error the unrewritten query would.
	for _, src := range []string{"1 / 0", "9223372036854775807 + 1"} {
		before := parseExpr(t, src).String()
		got, _ := foldString(t, src)
		if got != before {
			t.Errorf("fold(%s) = %s, must stay unfolded", src, got)
		}
	}
	// Column references block folding of their enclosing expression but not
	// of constant siblings.
	got, n := foldString(t, "x + (1 + 2)")
	if got != "(x + 3)" || n != 1 {
		t.Errorf("fold(x + (1 + 2)) = %s (n=%d), want (x + 3) (n=1)", got, n)
	}
	// Subquery bodies are opaque.
	got, n = foldString(t, "(select 1 + 2) ")
	if n != 0 {
		t.Errorf("fold descended into a subquery: %s (n=%d)", got, n)
	}
}

func TestFoldExprCaseFirstTruthyArm(t *testing.T) {
	// A truthy literal arm after non-literal arms becomes the ELSE and the
	// trailing arms die.
	got, _ := foldString(t, "case when x = 1 then 'a' when 1 = 1 then 'b' when y = 2 then 'c' else 'd' end")
	want := "CASE WHEN (x = 1) THEN 'a' ELSE 'b' END"
	if got != want {
		t.Errorf("fold = %s, want %s", got, want)
	}
}

func TestTotalPushExpr(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"k = 7", true},
		{"k > 1 and v < 2", true},
		{"k is null", true},
		{"k between 1 and 3", true},
		{"k in (1, 2, 3)", true},
		{"case when k = 1 then 1 else 0 end = 1", true},
		// Arithmetic can overflow or divide by zero at new rows.
		{"k + 1 = 7", false},
		{"k / v = 1", false},
		{"-k = 7", false},
		// Function calls and subqueries may error or see different scopes.
		{"abs(k) = 7", false},
		{"k in (select 1)", false},
	}
	for _, c := range cases {
		if got := totalPushExpr(parseExpr(t, c.src)); got != c.want {
			t.Errorf("totalPushExpr(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestRuleSetNamesAndToggles(t *testing.T) {
	// Every rule has a distinct bit and a distinct name, in rule order.
	seen := map[string]bool{}
	var acc RuleSet
	for _, r := range ruleOrder {
		name := ruleName(r)
		if name == "" || seen[name] {
			t.Fatalf("rule %#x has bad/duplicate name %q", r, name)
		}
		seen[name] = true
		if acc.Has(r) {
			t.Fatalf("rule %#x overlaps earlier bits", r)
		}
		acc |= r
	}
	if acc != RuleAll {
		t.Fatalf("ruleOrder covers %#x, RuleAll = %#x", acc, RuleAll)
	}
	if !RuleAll.Has(RulePushFilter) || RuleSet(0).Has(RuleFoldConst) {
		t.Fatal("Has is broken")
	}
}

// stubCatalog satisfies Catalog for planner tests: three empty tables —
// t(a, b, x, y) with hash indexes on x and b, u(x, c) with a hash index on
// x, and v(y, d) — plus the built-in aggregate names.
type stubCatalog struct{}

var stubTables = func() map[string]*storage.Table {
	mk := func(name string, cols ...string) *storage.Table {
		var sc []storage.Column
		for _, c := range cols {
			sc = append(sc, storage.Col(c, sqltypes.Int))
		}
		return storage.NewTable(name, storage.NewSchema(sc...))
	}
	out := map[string]*storage.Table{"t": mk("t", "a", "b", "x", "y"), "u": mk("u", "x", "c"), "v": mk("v", "y", "d")}
	for _, ix := range [][2]string{{"t", "x"}, {"t", "b"}, {"u", "x"}} {
		if err := out[ix[0]].CreateIndex(ix[1]); err != nil {
			panic(err)
		}
	}
	return out
}()

func (stubCatalog) ResolveTable(name string) (*storage.Table, error) {
	if t, ok := stubTables[name]; ok {
		return t, nil
	}
	return nil, errf("stub catalog has no table %q", name)
}

func (stubCatalog) AggSpec(name string) (*exec.AggSpec, bool) {
	spec, ok := exec.BuiltinAggs()[name]
	return spec, ok
}

func (stubCatalog) ScalarFuncExists(string) bool { return false }

func parseSelect(src string) *ast.Select {
	return parser.MustParse(src)[0].(*ast.QueryStmt).Query
}

// TestBuildAndCompile plans representative query shapes through the
// per-block pipeline, with the rewrite pass on and off: the IR must accept
// every shape and both compiles must agree on the output columns.
func TestBuildAndCompile(t *testing.T) {
	cases := []struct {
		src  string
		cols string
	}{
		{"select a, b from t", "a,b"},
		{"select distinct a from t where a = 1 and b > 2", "a"},
		{"select a, count(*) as n from t where b = 1 group by a having count(*) > 2", "a,n"},
		{"select top 3 a from t order by a desc, b", "a"},
		{"select q.a from (select a from t where a > 0) q where q.a < 10", "a"},
		{"select a from t inner join u on t.x = u.x left join v on v.y = t.y", "a"},
		{"with c as (select a from t) select * from c where a = 1", "a"},
		{"select a from t union all select x from u order by a", "a"},
		{"select * from (with c as (select a, b from t) select * from c) d", "a,b"},
	}
	for _, tc := range cases {
		c := &compiler{cat: stubCatalog{}}
		if _, err := c.buildLogical(parseSelect(tc.src), nil); err != nil {
			t.Errorf("buildLogical(%s): %v", tc.src, err)
			continue
		}
		for _, opts := range []Options{{}, {DisableRules: RuleAll}} {
			p, err := Compile(stubCatalog{}, opts, parseSelect(tc.src))
			if err != nil {
				t.Errorf("Compile(%s, rules off=%v): %v", tc.src, opts.DisableRules != 0, err)
				continue
			}
			if got := strings.Join(p.Columns, ","); got != tc.cols {
				t.Errorf("Compile(%s) columns = %s, want %s", tc.src, got, tc.cols)
			}
		}
	}
}

// TestBuildLogicalErrors checks that the IR build reports the compile
// errors of shapes no plan exists for.
func TestBuildLogicalErrors(t *testing.T) {
	cases := map[string]string{
		"select sum(sum(a)) from t":    "plan: nested aggregate in arguments of sum",
		"select a from t having a > 1": "plan: HAVING requires aggregation",
	}
	for src, want := range cases {
		c := &compiler{cat: stubCatalog{}}
		if _, err := c.buildLogical(parseSelect(src), nil); err == nil || err.Error() != want {
			t.Errorf("buildLogical(%s) err = %v, want %q", src, err, want)
		}
		if _, err := Compile(stubCatalog{}, Options{}, parseSelect(src)); err == nil || err.Error() != want {
			t.Errorf("Compile(%s) err = %v, want %q", src, err, want)
		}
	}
}

// TestChooseAccessPathSeeksEveryBlock checks that choose_access_path picks
// the equality seek in nested blocks whose key is an outer-scope column or
// a variable, even on an empty table (where a full scan costs less) and
// when several candidates have to be costed against each other.
func TestChooseAccessPathSeeksEveryBlock(t *testing.T) {
	outer := &scope{}
	outer.add("o", "k", sqltypes.Int)
	for src, want := range map[string]string{
		"select max(c) from u where u.x = o.k":                   "IndexSeek(u.x) [rw:choose_access_path]",
		"select max(c) from u where x = k":                       "IndexSeek(u.x) [rw:choose_access_path]",
		"select max(c) from u where x = @v":                      "IndexSeek(u.x) [rw:choose_access_path]",
		"select count(*) from u, v where u.x = @v and v.y = u.c": "IndexSeek(u.x) [rw:choose_access_path]",
		"select max(a) from t where x = o.k and b = @v":          "[rw:choose_access_path] cost=2.0",
	} {
		c := &compiler{cat: stubCatalog{}}
		_, _, n, err := c.compileSelect(parseSelect(src), outer, nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !n.Contains(want) || !n.Contains("IndexSeek(") {
			t.Errorf("%s: no pinned equality seek %q in\n%s", src, want, n)
		}
	}
	// A key over the block's own columns is not a seek key.
	c := &compiler{cat: stubCatalog{}}
	_, _, n, err := c.compileSelect(parseSelect("select max(c) from u where x = c"), outer, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Contains("IndexSeek") {
		t.Errorf("seek keyed by the block's own column:\n%s", n)
	}
}

func TestAddMark(t *testing.T) {
	m := addMark("", "push_filter")
	m = addMark(m, "prune_project")
	if m != "push_filter,prune_project" {
		t.Fatalf("addMark chain = %q", m)
	}
	if got := addMark(m, "push_filter"); got != m {
		t.Fatalf("addMark duplicated: %q", got)
	}
}
