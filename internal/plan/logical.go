// Logical-plan IR: a small relational algebra between the AST and physical
// operators. Every SELECT block — the top-level query, derived tables, CTE
// bodies, UNION ALL branches, and scalar/EXISTS/IN subqueries — is planned
// by one pipeline: buildLogical turns the AST into the IR, the rewrite pass
// (rewrite.go, access.go) normalizes it and pins access paths and join
// orders on the nodes, and the physical compiler (compile_*.go) builds
// operators straight from the rewritten nodes, reading the rewrite marks
// and access hints off them. Blocks have a fixed spine, innermost to
// outermost:
//
//	From → Filter* (WHERE) → [Aggregate → Filter* (HAVING)] → Project
//	     → [Sort] → [Top] → [With]
//
// where From is a Scan, CTERef, Derived, Join tree, or Cross of those.
// UNION ALL chains become a SetOp of per-branch spines under the head's
// Sort/Top/With wrappers. CTE bodies and subqueries inside expressions stay
// AST: each is planned through the same pipeline when the compiler reaches
// it (CTE bodies see only outer scopes, so block-local rules cannot touch
// them from here).
package plan

import (
	"fmt"
	"slices"
	"strings"

	"aggify/internal/ast"
)

// lNode is one node of the logical IR.
type lNode interface{ lnode() }

// --- FROM-position nodes ---

// lScan reads a base table, table variable, or temp table. hint, when set
// by choose_access_path, pins the physical access path the compiler must
// use for this scan.
type lScan struct {
	Name  string
	Alias string
	hint  *accessHint
}

// lCTERef reads a common table expression visible in the current scope.
type lCTERef struct {
	Name  string
	Alias string
}

// lDerived is a derived table: (SELECT ...) alias.
type lDerived struct {
	Child lNode
	Alias string
	mark  string // fired-rule annotation for EXPLAIN, "" when untouched
}

// lJoin is an explicit ANSI join. mark/cost annotate a join reorder_joins
// rebuilt (mark is "" when untouched; cost is the estimated driving-leaf
// cardinality shown in EXPLAIN).
type lJoin struct {
	Kind ast.JoinKind
	L, R lNode
	On   ast.Expr
	mark string
	cost float64
}

// lCross is a comma-joined FROM list (len 0: no FROM at all).
type lCross struct {
	Units []lNode
}

// --- spine nodes ---

// lFilter applies one conjunct. WHERE conjuncts stack directly above the
// From construct; HAVING conjuncts stack above the lAggregate. The first
// conjunct of the source clause is innermost.
type lFilter struct {
	In   lNode
	Pred ast.Expr
	mark string
}

// lAggregate groups and aggregates; the aggregate calls themselves live in
// the enclosing lProject's items (as in the AST).
type lAggregate struct {
	In      lNode
	GroupBy []ast.Expr
}

// lProject is the projection list of one query block.
type lProject struct {
	In       lNode
	Items    []ast.SelectItem
	Distinct bool
	// OrderEnforced carries the Aggify Eq. 6 flag of the source block.
	OrderEnforced bool
}

// lSort is an ORDER BY.
type lSort struct {
	In   lNode
	Keys []ast.OrderItem
}

// lTop is a TOP n row limit.
type lTop struct {
	In lNode
	N  ast.Expr
}

// lWith scopes CTE definitions (bodies carried as AST).
type lWith struct {
	In   lNode
	Defs []ast.CTE
}

// lSetOp is a UNION ALL chain. Non-head branches' own WITH, ORDER BY and
// TOP are not modeled: only the head's apply to the union.
type lSetOp struct {
	Branches []lNode
}

func (*lScan) lnode()      {}
func (*lCTERef) lnode()    {}
func (*lDerived) lnode()   {}
func (*lJoin) lnode()      {}
func (*lCross) lnode()     {}
func (*lFilter) lnode()    {}
func (*lAggregate) lnode() {}
func (*lProject) lnode()   {}
func (*lSort) lnode()      {}
func (*lTop) lnode()       {}
func (*lWith) lnode()      {}
func (*lSetOp) lnode()     {}

// buildLogical turns a SELECT into the IR. The IR aliases q's expressions
// and rules rewrite them in place, so callers pass a private copy. Table
// references naming a CTE bound in env (or in an enclosing WITH of q)
// become lCTERefs, exactly as the compiler's cteEnv will resolve them.
func (c *compiler) buildLogical(q *ast.Select, env *cteEnv) (lNode, error) {
	var cteScope []string
	for e := env; e != nil; e = e.parent {
		cteScope = append(cteScope, e.binding.name)
	}
	return c.buildLogicalSelect(q, cteScope)
}

// buildLogicalSelect builds the wrapper stack + block spine (or SetOp of
// spines) for one SELECT. cteScope lists the CTE names visible at this
// point.
func (c *compiler) buildLogicalSelect(q *ast.Select, cteScope []string) (lNode, error) {
	scope := cteScope
	if len(q.With) > 0 {
		scope = slices.Clone(cteScope)
		for _, cte := range q.With {
			scope = append(scope, cte.Name)
		}
	}
	var n lNode
	if q.Union == nil {
		var err error
		if n, err = c.buildLogicalCore(q, q.OrderBy, scope); err != nil {
			return nil, err
		}
	} else {
		set := &lSetOp{}
		for b := q; b != nil; b = b.Union {
			// The head's ORDER BY resolves against the union output, so no
			// branch sees it for aggregate detection.
			bn, err := c.buildLogicalCore(b, nil, scope)
			if err != nil {
				return nil, err
			}
			set.Branches = append(set.Branches, bn)
		}
		n = set
	}
	if len(q.OrderBy) > 0 {
		n = &lSort{In: n, Keys: q.OrderBy}
	}
	if q.Top != nil {
		n = &lTop{In: n, N: q.Top}
	}
	if len(q.With) > 0 {
		n = &lWith{In: n, Defs: q.With}
	}
	return n, nil
}

// buildLogicalCore builds one query block's spine: From → WHERE filters →
// aggregate + HAVING filters → Project. orderBy is passed only for
// aggregate detection (ORDER BY sum(x) forces aggregation).
func (c *compiler) buildLogicalCore(q *ast.Select, orderBy []ast.OrderItem, cteScope []string) (lNode, error) {
	n, err := c.buildLogicalFrom(q.From, cteScope)
	if err != nil {
		return nil, err
	}
	for _, cj := range splitConjuncts(q.Where) {
		n = &lFilter{In: n, Pred: cj}
	}
	aggs, err := c.blockAggs(q.Items, []ast.Expr{q.Having}, orderBy)
	if err != nil {
		return nil, err
	}
	if len(aggs) > 0 || len(q.GroupBy) > 0 {
		n = &lAggregate{In: n, GroupBy: q.GroupBy}
		for _, cj := range splitConjuncts(q.Having) {
			n = &lFilter{In: n, Pred: cj}
		}
	} else if q.Having != nil {
		return nil, errf("HAVING requires aggregation")
	}
	return &lProject{In: n, Items: q.Items, Distinct: q.Distinct, OrderEnforced: q.OrderEnforced}, nil
}

func (c *compiler) buildLogicalFrom(items []ast.TableExpr, cteScope []string) (lNode, error) {
	if len(items) == 1 {
		return c.buildLogicalUnit(items[0], cteScope)
	}
	cross := &lCross{Units: make([]lNode, 0, len(items))}
	for _, te := range items {
		u, err := c.buildLogicalUnit(te, cteScope)
		if err != nil {
			return nil, err
		}
		cross.Units = append(cross.Units, u)
	}
	return cross, nil
}

func (c *compiler) buildLogicalUnit(te ast.TableExpr, cteScope []string) (lNode, error) {
	switch t := te.(type) {
	case *ast.TableRef:
		if slices.Contains(cteScope, t.Name) {
			return &lCTERef{Name: t.Name, Alias: t.Alias}, nil
		}
		return &lScan{Name: t.Name, Alias: t.Alias}, nil
	case *ast.SubqueryRef:
		child, err := c.buildLogicalSelect(t.Query, cteScope)
		if err != nil {
			return nil, err
		}
		return &lDerived{Child: child, Alias: t.Alias}, nil
	case *ast.Join:
		l, err := c.buildLogicalUnit(t.L, cteScope)
		if err != nil {
			return nil, err
		}
		r, err := c.buildLogicalUnit(t.R, cteScope)
		if err != nil {
			return nil, err
		}
		return &lJoin{Kind: t.Kind, L: l, R: r, On: t.On}, nil
	}
	return nil, errf("unknown table expression %T", te)
}

// mapLogicalChildren rewrites every direct child of n through f, in place
// (the IR owns a private AST clone), and returns n.
func mapLogicalChildren(n lNode, f func(lNode) lNode) lNode {
	switch t := n.(type) {
	case *lFilter:
		t.In = f(t.In)
	case *lAggregate:
		t.In = f(t.In)
	case *lProject:
		t.In = f(t.In)
	case *lSort:
		t.In = f(t.In)
	case *lTop:
		t.In = f(t.In)
	case *lWith:
		t.In = f(t.In)
	case *lDerived:
		t.Child = f(t.Child)
	case *lJoin:
		t.L = f(t.L)
		t.R = f(t.R)
	case *lCross:
		for i := range t.Units {
			t.Units[i] = f(t.Units[i])
		}
	case *lSetOp:
		for i := range t.Branches {
			t.Branches[i] = f(t.Branches[i])
		}
	}
	return n
}

// blockProject descends a derived table's child through its wrapper stack to
// the block projection; nil for SetOps and malformed spines. Callers use it
// to read a derived table's output items.
func blockProject(child lNode) *lProject {
	for {
		switch t := child.(type) {
		case *lWith:
			child = t.In
		case *lTop:
			child = t.In
		case *lSort:
			child = t.In
		case *lProject:
			return t
		default:
			return nil
		}
	}
}

// blockSpine is one query block's spine read off the IR. Filter lists are
// in source order (innermost lFilter first); agg is nil when the block does
// not aggregate, and having is then empty.
type blockSpine struct {
	proj   *lProject
	having []*lFilter
	agg    *lAggregate
	where  []*lFilter
	from   lNode
}

// spineOf decomposes a block spine rooted at its lProject.
func spineOf(p *lProject) blockSpine {
	sp := blockSpine{proj: p}
	fs, n := filterChain(p.In)
	if a, ok := n.(*lAggregate); ok {
		sp.having, sp.agg = fs, a
		fs, n = filterChain(a.In)
	}
	sp.where, sp.from = fs, n
	return sp
}

// filterChain collects the run of lFilter nodes starting at n, in source
// order, and returns the node below them.
func filterChain(n lNode) ([]*lFilter, lNode) {
	var out []*lFilter
	for f, ok := n.(*lFilter); ok; f, ok = n.(*lFilter) {
		out = append(out, f)
		n = f.In
	}
	slices.Reverse(out)
	return out, n
}

// predsOf returns the predicates of a filter list.
func predsOf(fs []*lFilter) []ast.Expr {
	out := make([]ast.Expr, len(fs))
	for i, f := range fs {
		out[i] = f.Pred
	}
	return out
}

// fromUnits lists the comma-joined units of a FROM node.
func fromUnits(from lNode) []lNode {
	if cross, ok := from.(*lCross); ok {
		return cross.Units
	}
	return []lNode{from}
}

// itemOutName is the output column name of the projection item at output
// position idx.
func itemOutName(it ast.SelectItem, idx int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ast.ColRef); ok {
		return cr.Name
	}
	return fmt.Sprintf("col%d", idx+1)
}

// bindingOf is the qualifier a table reference exposes.
func bindingOf(name, alias string) string {
	if alias != "" {
		return alias
	}
	return name
}

// unitInfo derives a FROM unit's binding and output column names from the
// IR without compiling it; CTE references resolve through env. opaque
// marks a unit the rewrite rules treat as having unknown columns: a CTE
// reference, a late-bound table (table variables and temp tables bind per
// execution), a UNION, or a derived table projecting `*`. An explicit join
// has no binding of its own.
func (c *compiler) unitInfo(n lNode, env *cteEnv) (binding string, cols []string, opaque bool, err error) {
	switch t := n.(type) {
	case *lScan:
		binding = bindingOf(t.Name, t.Alias)
		tab, err := c.cat.ResolveTable(t.Name)
		if err != nil {
			return binding, nil, true, err
		}
		return binding, tab.Schema.Names(), lateBound(t.Name), nil
	case *lCTERef:
		binding = bindingOf(t.Name, t.Alias)
		b := env.lookup(t.Name)
		if b == nil {
			return binding, nil, true, errf("unknown CTE %s", t.Name)
		}
		for _, col := range b.cols {
			cols = append(cols, col.Name)
		}
		return binding, cols, true, nil
	case *lDerived:
		cols, opaque, err := c.selectCols(t.Child, env)
		return t.Alias, cols, opaque, err
	case *lJoin:
		_, l, lo, err := c.unitInfo(t.L, env)
		if err != nil {
			return "", nil, true, err
		}
		_, r, ro, err := c.unitInfo(t.R, env)
		if err != nil {
			return "", nil, true, err
		}
		return "", append(l, r...), lo || ro, nil
	}
	return "", nil, true, errf("unknown table expression %T", n)
}

// selectCols derives the output column names of a select root (its first
// UNION branch for a SetOp), expanding `*` items over the block's FROM
// units. CTEs the root declares are bound by name only when a star needs
// them.
func (c *compiler) selectCols(n lNode, env *cteEnv) (cols []string, opaque bool, err error) {
	var defs []ast.CTE
	for {
		switch t := n.(type) {
		case *lWith:
			defs = append(defs, t.Defs...)
			n = t.In
		case *lTop:
			n = t.In
		case *lSort:
			n = t.In
		case *lSetOp:
			opaque = true
			n = t.Branches[0]
		case *lProject:
			for _, it := range t.Items {
				if !it.Star {
					cols = append(cols, itemOutName(it, len(cols)))
					continue
				}
				opaque = true
				if defs != nil {
					if env, err = c.bindCTENames(defs, env); err != nil {
						return nil, true, err
					}
					defs = nil
				}
				star, err := c.starCols(spineOf(t).from, it.Alias, env)
				if err != nil {
					return nil, true, err
				}
				cols = append(cols, star...)
			}
			return cols, opaque, nil
		default:
			return nil, true, errf("malformed logical plan %T", n)
		}
	}
}

// bindCTENames extends env with name-only bindings for defs (declared
// column names, or their bodies' output names).
func (c *compiler) bindCTENames(defs []ast.CTE, env *cteEnv) (*cteEnv, error) {
	for _, d := range defs {
		names := d.Cols
		if len(names) == 0 {
			body, err := c.buildLogical(d.Query, env)
			if err != nil {
				return nil, err
			}
			if names, _, err = c.selectCols(body, env); err != nil {
				return nil, err
			}
		}
		b := &cteBinding{name: d.Name}
		for _, name := range names {
			b.cols = append(b.cols, colBinding{Name: strings.ToLower(name)})
		}
		env = &cteEnv{parent: env, binding: b}
	}
	return env, nil
}

// starCols expands a `*` (or `alias.*`) item over a FROM node's units,
// descending into explicit joins so qualified stars match a join side.
func (c *compiler) starCols(from lNode, alias string, env *cteEnv) ([]string, error) {
	var out []string
	for _, u := range fromUnits(from) {
		if j, ok := u.(*lJoin); ok && alias != "" {
			l, err := c.starCols(j.L, alias, env)
			if err != nil {
				return nil, err
			}
			r, err := c.starCols(j.R, alias, env)
			if err != nil {
				return nil, err
			}
			out = append(append(out, l...), r...)
			continue
		}
		b, cols, _, err := c.unitInfo(u, env)
		if err != nil {
			return nil, err
		}
		if alias == "" || b == alias {
			out = append(out, cols...)
		}
	}
	return out, nil
}
