package plan

import (
	"testing"

	"aggify/internal/ast"
	"aggify/internal/parser"
)

// FuzzCompile plans every SELECT of its input over the stub catalog with
// the rewrite rules on and off. Planning must never panic, and the rules
// must never turn a query that compiles into one that does not: a rule bug
// fails here instead of degrading to a missed optimization. Seeds live in
// testdata/fuzz/FuzzCompile; keep any crasher the fuzzer writes there.
func FuzzCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := parser.Parse(src)
		if err != nil {
			return
		}
		for _, st := range stmts {
			qs, ok := st.(*ast.QueryStmt)
			if !ok {
				continue
			}
			_, offErr := Compile(stubCatalog{}, Options{DisableRules: RuleAll}, qs.Query)
			if _, onErr := Compile(stubCatalog{}, Options{}, qs.Query); offErr == nil && onErr != nil {
				t.Fatalf("%s: compiles with the rules off but not on: %v", qs.Query, onErr)
			}
		}
	})
}
