package core

import (
	"fmt"

	"aggify/internal/analysis"
	"aggify/internal/ast"
)

// liftForLoops implements the §8.1 enhancement: counted FOR loops whose
// iteration space is expressible as a relation are rewritten into cursor
// loops over a recursive CTE, which the main transformation then aggifies.
//
//	FOR (@i = init; cond; @i = post) body
//
// becomes
//
//	DECLARE aggify_forN CURSOR FOR
//	  WITH aggify_iter(val) AS (
//	    SELECT init AS val WHERE cond[@i := init]
//	    UNION ALL
//	    SELECT post[@i := val] AS val FROM aggify_iter
//	    WHERE cond[@i := post[@i := val]])
//	  SELECT val FROM aggify_iter;
//	OPEN aggify_forN;
//	FETCH NEXT FROM aggify_forN INTO @i;
//	WHILE @@fetch_status = 0 BEGIN body; FETCH ... END
//	CLOSE aggify_forN; DEALLOCATE aggify_forN;
//
// A FOR loop whose body assigns the loop variable or any variable used by
// the condition or increment is left untouched (its iteration space is not
// statically a relation).
func liftForLoops(body *ast.Block) {
	counter := 0
	var walk func(s ast.Stmt)
	rewriteList := func(stmts []ast.Stmt) []ast.Stmt {
		var out []ast.Stmt
		for _, s := range stmts {
			if f, ok := s.(*ast.ForStmt); ok {
				if lifted := liftOneFor(f, fmt.Sprintf("aggify_for%d", counter+1)); lifted != nil {
					counter++
					walk(lifted)
					out = append(out, lifted.Stmts...)
					continue
				}
			}
			walk(s)
			out = append(out, s)
		}
		return out
	}
	walk = func(s ast.Stmt) {
		switch st := s.(type) {
		case nil:
		case *ast.Block:
			st.Stmts = rewriteList(st.Stmts)
		case *ast.IfStmt:
			walk(st.Then)
			walk(st.Else)
		case *ast.WhileStmt:
			walk(st.Body)
		case *ast.ForStmt:
			walk(st.Body)
		case *ast.TryCatch:
			walk(st.Try)
			walk(st.Catch)
		}
	}
	walk(body)
}

// liftOneFor converts one FOR loop into a cursor loop over a recursive
// CTE named cursor; nil when not liftable. The WHILE lift reuses this
// with a synthetic FOR whose init expression is the control variable
// itself (its current value at loop entry).
func liftOneFor(f *ast.ForStmt, cursor string) *ast.Block {
	if f.InitVar != f.PostVar {
		return nil
	}
	loopVar := f.InitVar
	// The body must not redefine the loop variable or anything the
	// condition/increment reads.
	controlled := map[string]bool{loopVar: true}
	for v := range ast.VarsInExpr(f.Cond) {
		controlled[v] = true
	}
	for v := range ast.VarsInExpr(f.PostExpr) {
		controlled[v] = true
	}
	conflict := false
	ast.WalkStmt(f.Body, func(s ast.Stmt) bool {
		defs, _ := analysis.StmtDefsUses(s, nil)
		for _, d := range defs {
			if controlled[d] {
				conflict = true
			}
		}
		return true
	})
	if conflict {
		return nil
	}

	valCol := ast.Col("val")
	subst := func(e ast.Expr, repl ast.Expr) ast.Expr {
		return ast.MapExpr(ast.CloneExpr(e), func(x ast.Expr) ast.Expr {
			if v, ok := x.(*ast.VarRef); ok && v.Name == loopVar {
				return ast.CloneExpr(repl)
			}
			return nil
		})
	}
	seed := &ast.Select{
		Items: []ast.SelectItem{{Expr: ast.CloneExpr(f.InitExpr), Alias: "val"}},
		Where: subst(f.Cond, f.InitExpr),
	}
	nextVal := subst(f.PostExpr, valCol)
	recursive := &ast.Select{
		Items: []ast.SelectItem{{Expr: ast.CloneExpr(nextVal), Alias: "val"}},
		From:  []ast.TableExpr{&ast.TableRef{Name: "aggify_iter"}},
		Where: subst(f.Cond, nextVal),
	}
	seed.Union = recursive
	query := &ast.Select{
		With:  []ast.CTE{{Name: "aggify_iter", Cols: []string{"val"}, Query: seed}},
		Items: []ast.SelectItem{{Expr: valCol}},
		From:  []ast.TableExpr{&ast.TableRef{Name: "aggify_iter"}},
	}

	bodyBlock, ok := f.Body.(*ast.Block)
	if !ok {
		bodyBlock = &ast.Block{Stmts: []ast.Stmt{f.Body}}
	}
	loopBody := &ast.Block{Stmts: append(append([]ast.Stmt{}, bodyBlock.Stmts...),
		&ast.FetchStmt{Cursor: cursor, Into: []string{loopVar}})}

	return &ast.Block{Stmts: []ast.Stmt{
		&ast.DeclareCursor{Name: cursor, Query: query},
		&ast.OpenCursor{Name: cursor},
		&ast.FetchStmt{Cursor: cursor, Into: []string{loopVar}},
		&ast.WhileStmt{
			Cond: ast.Eq(ast.Var(ast.FetchStatusVar), ast.IntLit(0)),
			Body: loopBody,
		},
		&ast.CloseCursor{Name: cursor},
		&ast.DeallocateCursor{Name: cursor},
	}}
}
