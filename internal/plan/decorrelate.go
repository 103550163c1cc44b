package plan

import (
	"fmt"
	"slices"

	"aggify/internal/ast"
)

// decorrelate is the apply-decorrelation rule: a correlated scalar-aggregate
// subquery in the root block's projection,
//
//	SELECT t.a, (SELECT AGG(...) FROM s WHERE s.k = t.a AND p) FROM t
//
// becomes a left join against a grouped aggregation,
//
//	SELECT t.a, CASE WHEN d.__m IS NULL THEN __agg_empty('agg') ELSE d.__v END
//	FROM t LEFT JOIN (SELECT s.k AS __k0, 1 AS __m, AGG(...) AS __v
//	                  FROM s WHERE p GROUP BY s.k) d ON d.__k0 = t.a
//
// built directly as IR. This is the rewrite that turns the Aggify+Froid
// pipeline's per-row apply into a set-oriented plan — the source of the
// paper's Q13-style orders-of-magnitude wins, and of Table 2's "Aggify+
// reads more pages but runs faster" effect. Join misses are patched to the
// aggregate's empty-input value (Init+Terminate), evaluated by the
// __agg_empty pseudo-function, so the semantics match the original apply
// exactly (COUNT(*) = 0 included).
//
// Only the root block is rewritten: a nested block may run once per outer
// row, and the rule is not costed. The root must have a single FROM unit
// and no GROUP BY, UNION, WITH or Eq. 6 order enforcement; this covers the
// UDF-inlining pattern the paper targets. The rule applies when safe and
// leaves the block alone otherwise; it never changes results.
func (rw *rewriter) decorrelate(root lNode) lNode {
	n := root
	for {
		if t, ok := n.(*lTop); ok {
			n = t.In
		} else if s, ok := n.(*lSort); ok {
			n = s.In
		} else {
			break
		}
	}
	p, ok := n.(*lProject)
	if !ok || p.OrderEnforced {
		return root
	}
	sp := spineOf(p)
	if _, cross := sp.from.(*lCross); cross || (sp.agg != nil && len(sp.agg.GroupBy) > 0) {
		return root
	}
	d := &decorrelator{rw: rw, from: sp.from, cache: map[string]ast.Expr{}}
	for i, it := range p.Items {
		if !it.Star {
			p.Items[i].Expr = d.expr(it.Expr)
		}
	}
	if d.serial == 0 {
		return root
	}
	switch {
	case len(sp.where) > 0:
		sp.where[0].In = d.from
	case sp.agg != nil:
		sp.agg.In = d.from
	default:
		p.In = d.from
	}
	return root
}

// decorrelator carries one root block's decorrelation state: the FROM
// node the joins accumulate on, and the replacements made so far, keyed by
// subquery text (tuple_get(S, 0) and tuple_get(S, 1) from the Aggify guarded
// rewrite share one join).
type decorrelator struct {
	rw     *rewriter
	from   lNode
	cache  map[string]ast.Expr
	serial int
}

// expr rewrites the scalar subqueries of e in pre-order, stopping at the
// first one that cannot be decorrelated.
func (d *decorrelator) expr(e ast.Expr) ast.Expr {
	stop := false
	return ast.MapExpr(e, func(x ast.Expr) ast.Expr {
		sq, ok := x.(*ast.Subquery)
		if stop || !ok {
			return nil
		}
		if sq.Exists {
			return sq
		}
		key := sq.String()
		if cached, ok := d.cache[key]; ok {
			return ast.CloneExpr(cached)
		}
		repl := d.subquery(sq)
		if repl == nil {
			stop = true
			return sq
		}
		d.cache[key] = repl
		return repl
	})
}

// subquery decorrelates one scalar subquery: it joins the grouped
// aggregation onto d.from and returns the expression that replaces the
// subquery, or nil when the subquery is not of the accepted shape.
func (d *decorrelator) subquery(sq *ast.Subquery) ast.Expr {
	c := d.rw.c
	body, err := c.buildLogicalSelect(ast.CloneSelect(sq.Query), nil)
	if err != nil {
		return nil
	}
	if s, ok := body.(*lSort); ok {
		body = s.In // ordering the single aggregate row is a no-op
	}
	p, ok := body.(*lProject)
	if !ok || p.Distinct || p.OrderEnforced {
		return nil
	}
	sp := spineOf(p)
	if sp.agg == nil || len(sp.agg.GroupBy) > 0 || len(sp.having) > 0 {
		return nil
	}
	units, items, preds := c.flattenDerived(fromUnits(sp.from), p.Items, predsOf(sp.where))
	if len(items) != 1 || items[0].Star {
		return nil
	}
	agg, ok := items[0].Expr.(*ast.FuncCall)
	if !ok {
		return nil
	}
	if spec, isAgg := c.cat.AggSpec(agg.Name); !isAgg || spec.OrderSensitive {
		return nil
	}

	// Column names available from the subquery's own FROM units.
	local, err := c.describeUnits(units)
	if err != nil {
		return nil
	}
	localCol := func(cr *ast.ColRef) bool { return len(unitsOf(cr, local)) > 0 }
	countLocal := func(e ast.Expr) (nLocal, nOuter int) {
		for _, cr := range ast.ColRefs(e) {
			if localCol(cr) {
				nLocal++
			} else {
				nOuter++
			}
		}
		return nLocal, nOuter
	}
	// corr accepts side = other as a correlation equality: side a local
	// column, other free of local columns.
	corr := func(side, other ast.Expr) (*ast.ColRef, bool) {
		cr, ok := side.(*ast.ColRef)
		n, _ := countLocal(other)
		return cr, ok && localCol(cr) && n == 0
	}

	// Split WHERE into correlation equalities (local col = outer expr) and
	// local residue.
	var corrCols []*ast.ColRef
	var corrOuter []ast.Expr
	var localPreds []ast.Expr
	for _, cj := range preds {
		if _, outer := countLocal(cj); outer == 0 {
			localPreds = append(localPreds, cj)
			continue
		}
		l, r, isEq := eqSides(cj)
		if !isEq {
			return nil
		}
		col, ok := corr(l, r)
		outer := r
		if !ok {
			col, ok = corr(r, l)
			outer = l
		}
		if !ok {
			return nil
		}
		// The outer side references no local column (else the conjunct
		// would be local) and must hold no subquery of its own.
		if ast.HasSubquery(outer) {
			return nil
		}
		corrCols = append(corrCols, col)
		corrOuter = append(corrOuter, outer)
	}
	if len(corrCols) == 0 {
		return nil
	}

	// Substitute outer expressions with the (join-equal) correlation columns
	// inside the aggregate arguments; afterwards everything must be local.
	args := make([]ast.Expr, len(agg.Args))
	for i, a := range agg.Args {
		for j, outer := range corrOuter {
			key := outer.String()
			a = ast.MapExpr(a, func(x ast.Expr) ast.Expr {
				if x.String() == key {
					return ast.CloneExpr(corrCols[j])
				}
				return nil
			})
		}
		if _, outer := countLocal(a); outer > 0 {
			return nil
		}
		args[i] = a
	}

	d.serial++
	alias := fmt.Sprintf("__dcor%d", d.serial)
	var in lNode = &lCross{Units: units}
	if len(units) == 1 {
		in = units[0]
	}
	for _, pred := range localPreds {
		in = &lFilter{In: in, Pred: pred}
	}
	var groupBy []ast.Expr
	var keyItems []ast.SelectItem
	var on ast.Expr
	for j, col := range corrCols {
		kname := fmt.Sprintf("__k%d", j)
		keyItems = append(keyItems, ast.SelectItem{Expr: ast.CloneExpr(col), Alias: kname})
		groupBy = append(groupBy, ast.CloneExpr(col))
		on = ast.And(on, ast.Eq(ast.QCol(alias, kname), corrOuter[j]))
	}
	derived := &lDerived{
		Alias: alias,
		mark:  ruleName(RuleDecorrelate),
		Child: &lProject{
			In: &lAggregate{In: in, GroupBy: groupBy},
			Items: append(keyItems,
				ast.SelectItem{Expr: ast.IntLit(1), Alias: "__m"},
				ast.SelectItem{Expr: &ast.FuncCall{Name: agg.Name, Args: args, Star: agg.Star}, Alias: "__v"}),
		},
	}
	d.from = &lJoin{Kind: ast.JoinLeft, L: d.from, R: derived, On: on}
	d.rw.fire(RuleDecorrelate)
	return &ast.CaseExpr{
		Whens: []ast.WhenClause{{
			Cond: &ast.IsNullExpr{E: ast.QCol(alias, "__m")},
			Then: &ast.FuncCall{Name: "__agg_empty", Args: []ast.Expr{ast.StrLit(agg.Name)}},
		}},
		Else: ast.QCol(alias, "__v"),
	}
}

// flattenDerived inlines plain derived tables — a bare block spine without
// aggregation, DISTINCT or Eq. 6 enforcement, projecting no `*` — into a
// subquery's FROM list, exposing their predicates: in particular the
// correlation equalities that the Aggify rewrite leaves inside its
// "FROM (Q) Q" sub-select (Eq. 5). References to a flattened table's
// columns in items and preds become the expressions its projection names;
// its own WHERE conjuncts follow preds. A table stays when inlining would
// let a column name bind to a different table than it did before.
func (c *compiler) flattenDerived(units []lNode, items []ast.SelectItem, preds []ast.Expr) ([]lNode, []ast.SelectItem, []ast.Expr) {
	var out []lNode
	for k, u := range units {
		d, inner, ok := plainDerived(u)
		if !ok {
			out = append(out, u)
			continue
		}
		byName, dup := itemIndex(inner.proj.Items)
		innerUnits, err := c.describeUnits(fromUnits(inner.from))
		siblings, serr := c.describeUnits(append(slices.Clone(out), units[k+1:]...))
		if byName == nil || err != nil || serr != nil {
			out = append(out, u)
			continue
		}
		// The inlined units must not capture a reference that bound
		// elsewhere (a reference substitution leaves in place — the same
		// pointer), and the siblings must not capture an outer reference
		// of the inlined body.
		captured := func(orig, mapped ast.Expr) bool {
			kept := map[*ast.ColRef]bool{}
			for _, cr := range ast.ColRefs(orig) {
				kept[cr] = true
			}
			for _, cr := range ast.ColRefs(mapped) {
				if kept[cr] && (cr.Table == d.Alias || len(unitsOf(cr, innerUnits)) > 0) {
					return true
				}
			}
			return false
		}
		subst := func(e ast.Expr) ast.Expr {
			r, sok := substItems(e, d.Alias, inner.proj.Items, byName, dup)
			ok = ok && sok && !captured(e, r)
			return r
		}
		newItems := make([]ast.SelectItem, len(items))
		for i, it := range items {
			newItems[i] = ast.SelectItem{Expr: subst(it.Expr), Alias: it.Alias, Star: it.Star}
		}
		var newPreds []ast.Expr
		for _, pr := range preds {
			newPreds = append(newPreds, splitConjuncts(subst(pr))...)
		}
		moved := predsOf(inner.where)
		for _, it := range inner.proj.Items {
			moved = append(moved, it.Expr)
		}
		for _, cr := range ast.ColRefs(ast.And(moved...)) {
			if len(unitsOf(cr, innerUnits)) == 0 && len(unitsOf(cr, siblings)) > 0 {
				ok = false
			}
		}
		if !ok {
			out = append(out, u)
			continue
		}
		items = newItems
		preds = append(newPreds, predsOf(inner.where)...)
		out = append(out, fromUnits(inner.from)...)
	}
	return out, items, preds
}

// describeUnits describes FROM nodes for column classification (CTE
// references, unresolvable here, are an error).
func (c *compiler) describeUnits(nodes []lNode) ([]*fromUnit, error) {
	out := make([]*fromUnit, len(nodes))
	for i, n := range nodes {
		u, err := c.newFromUnit(i, n, nil)
		if err != nil {
			return nil, err
		}
		out[i] = u
	}
	return out, nil
}

// plainDerived returns n and its spine when n is a derived table
// flattenDerived may inline.
func plainDerived(n lNode) (*lDerived, blockSpine, bool) {
	d, ok := n.(*lDerived)
	if !ok {
		return nil, blockSpine{}, false
	}
	p, ok := d.Child.(*lProject)
	if !ok || p.Distinct || p.OrderEnforced {
		return nil, blockSpine{}, false
	}
	sp := spineOf(p)
	return d, sp, sp.agg == nil && len(fromUnits(sp.from)) > 0
}
