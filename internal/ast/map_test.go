package ast

import (
	"testing"

	"aggify/internal/sqltypes"
)

// mapSamples returns one expression of every Expr kind, referencing column
// col outside subquery bodies; the bodies always reference column cc.
func mapSamples(col string) []Expr {
	body := &Select{Items: []SelectItem{{Expr: Col("cc")}}, From: []TableExpr{&TableRef{Name: "t"}}}
	return []Expr{
		IntLit(1),
		Col(col),
		Var("@v"),
		&ParamRef{Index: 0},
		Bin(sqltypes.OpAdd, Col(col), IntLit(1)),
		&UnaryExpr{Op: '-', E: Col(col)},
		&IsNullExpr{E: Col(col), Negate: true},
		&CaseExpr{Whens: []WhenClause{{Cond: Eq(Col(col), IntLit(1)), Then: Var("@v")}}, Else: Col(col)},
		&FuncCall{Name: "f", Args: []Expr{Col(col), IntLit(2)}},
		&Subquery{Query: body},
		&Subquery{Query: body, Exists: true},
		&InExpr{E: Col(col), List: []Expr{IntLit(1), Col(col)}},
		&InExpr{E: Col(col), Query: body, Negate: true},
		&BetweenExpr{E: Col(col), Lo: IntLit(0), Hi: Var("@v")},
	}
}

func TestMapExprIdentityShares(t *testing.T) {
	for _, e := range mapSamples("cc") {
		if got := MapExpr(e, func(Expr) Expr { return nil }); got != e || got.String() != e.String() {
			t.Errorf("identity map of %s returned %s (shared=%v)", e, got, got == e)
		}
	}
	if MapExpr(nil, func(Expr) Expr { return IntLit(1) }) != nil {
		t.Error("MapExpr(nil) must be nil")
	}
}

func TestMapExprReplacesAtEveryKind(t *testing.T) {
	rename := func(x Expr) Expr {
		if cr, ok := x.(*ColRef); ok && cr.Name == "cc" {
			return Col("zz")
		}
		return nil
	}
	want := mapSamples("zz")
	for i, e := range mapSamples("cc") {
		before := e.String()
		got := MapExpr(e, rename)
		if got.String() != want[i].String() {
			t.Errorf("map of %s = %s, want %s", before, got, want[i])
		}
		if e.String() != before {
			t.Errorf("mapping %s modified its input to %s", before, e)
		}
		// Subquery bodies are never descended, and the copy shares them.
		switch x := got.(type) {
		case *Subquery:
			if x != e {
				t.Errorf("subquery %s was copied", before)
			}
		case *InExpr:
			if x.Query != e.(*InExpr).Query {
				t.Errorf("IN subquery body of %s was not shared", before)
			}
		}
		// Every node, the root included, can be replaced outright.
		if r := MapExpr(e, func(x Expr) Expr {
			if x == e {
				return Col("hit")
			}
			return nil
		}); r.String() != "hit" {
			t.Errorf("replacing the root of %s gave %s", before, r)
		}
	}
}

func TestMapExprPreOrderDoesNotDescendReplacements(t *testing.T) {
	e := &FuncCall{Name: "f", Args: []Expr{Bin(sqltypes.OpAdd, Col("cc"), IntLit(1)), Col("cc")}}
	var visited []string
	got := MapExpr(e, func(x Expr) Expr {
		visited = append(visited, x.String())
		switch t := x.(type) {
		case *BinExpr:
			return Col("cc") // a replacement is used as is
		case *ColRef:
			if t.Name == "cc" {
				return Col("zz")
			}
		}
		return nil
	})
	if got.String() != "f(cc, zz)" {
		t.Fatalf("map = %s, want f(cc, zz)", got)
	}
	if len(visited) != 3 || visited[0] != e.String() {
		t.Fatalf("visit order %q, want the call, then its two arguments", visited)
	}
}
