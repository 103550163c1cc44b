package plan

import (
	"fmt"
	"slices"

	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// splitConjuncts flattens a predicate into its AND-ed conjuncts.
func splitConjuncts(e ast.Expr) []ast.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*ast.BinExpr); ok && b.Op == sqltypes.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []ast.Expr{e}
}

// fromUnit is one item of a comma-joined FROM list (or one side of an
// explicit join) before physical compilation.
type fromUnit struct {
	pos     int
	node    lNode
	binding string         // visible qualifier ("" for explicit joins)
	cols    []string       // output column names; nil when unknown
	tab     *storage.Table // the base table a non-late-bound scan reads
	preds   []*lFilter     // single-unit conjuncts assigned to this unit
	sides   []*fromUnit    // an explicit join's two sides
}

// newFromUnit describes FROM node n at list position pos.
func (c *compiler) newFromUnit(pos int, n lNode, env *cteEnv) (*fromUnit, error) {
	binding, cols, _, err := c.unitInfo(n, env)
	if err != nil {
		return nil, err
	}
	u := &fromUnit{pos: pos, node: n, binding: binding, cols: cols}
	switch t := n.(type) {
	case *lScan:
		if !lateBound(t.Name) {
			u.tab, _ = c.cat.ResolveTable(t.Name) // cannot fail: unitInfo resolved it
		}
	case *lJoin:
		for _, side := range []lNode{t.L, t.R} {
			su, err := c.newFromUnit(pos, side, env)
			if err != nil {
				return nil, err
			}
			u.sides = append(u.sides, su)
		}
	}
	return u, nil
}

// hasCol reports whether the unit may expose the (possibly qualified)
// column. A unit whose columns are unknown exposes every name under its
// binding; an explicit join exposes what its sides do.
func (u *fromUnit) hasCol(ref *ast.ColRef) bool {
	if u.sides != nil {
		return u.sides[0].hasCol(ref) || u.sides[1].hasCol(ref)
	}
	if ref.Table != "" && ref.Table != u.binding {
		return false
	}
	return u.cols == nil || containsStr(u.cols, ref.Name)
}

// eqSeek reports whether choose_access_path pinned an equality seek on the
// unit.
func (u *fromUnit) eqSeek() bool {
	s, ok := u.node.(*lScan)
	return ok && s.hint != nil && s.hint.kind == accessEq
}

// unitsOf returns the set of unit indexes referenced by e, conservatively:
// an unqualified name matching several units counts for all of them, and
// subqueries are descended into (their correlated references matter here).
func unitsOf(e ast.Expr, units []*fromUnit) map[int]bool {
	out := map[int]bool{}
	ast.WalkExpr(e, func(x ast.Expr) bool {
		cr, ok := x.(*ast.ColRef)
		if !ok {
			return true
		}
		for i, u := range units {
			if u.hasCol(cr) {
				out[i] = true
			}
		}
		return true
	})
	return out
}

// lateBound reports whether a table name resolves at execution time
// (table variables and temp tables).
func lateBound(name string) bool {
	return len(name) > 0 && (name[0] == '@' || name[0] == '#')
}

// eqSides splits an equality conjunct into its two sides; ok is false for
// non-equality predicates.
func eqSides(e ast.Expr) (l, r ast.Expr, ok bool) {
	b, isBin := e.(*ast.BinExpr)
	if !isBin || b.Op != sqltypes.OpEq {
		return nil, nil, false
	}
	return b.L, b.R, true
}

// compileFrom builds the physical access path for a FROM node and its
// WHERE filters: greedy join ordering over the comma-joined units, the
// access paths choose_access_path pinned, hash or index nested-loop joins
// for equi-predicates, and filter placement for everything else. All WHERE
// conjuncts are consumed.
func (c *compiler) compileFrom(from lNode, where []*lFilter, parent *scope, env *cteEnv) (opBuilder, *scope, *Node, error) {
	items := fromUnits(from)
	if len(items) == 0 {
		sc := &scope{parent: parent}
		n := node("OneRow")
		builder := annotate(func(*buildCtx) exec.Operator { return &exec.OneRowOp{} }, n)
		if len(where) == 0 {
			return builder, sc, n, nil
		}
		mark := ""
		if len(where) == 1 {
			mark = where[0].mark
		}
		builder, n, err := c.filter(builder, n, ast.And(predsOf(where)...), mark, sc, env)
		return builder, sc, n, err
	}

	units := make([]*fromUnit, len(items))
	for i, it := range items {
		u, err := c.newFromUnit(i, it, env)
		if err != nil {
			return nil, nil, nil, err
		}
		units[i] = u
	}

	type conj struct {
		f       *lFilter
		units   map[int]bool
		applied bool
	}
	conjs := make([]*conj, len(where))
	for i, f := range where {
		conjs[i] = &conj{f: f, units: unitsOf(f.Pred, units)}
	}

	// Assign single-unit conjuncts to their units.
	for _, cj := range conjs {
		if len(cj.units) == 1 {
			for i := range cj.units {
				units[i].preds = append(units[i].preds, cj.f)
			}
			cj.applied = true
		}
	}

	// Pick the starting unit: prefer a pinned equality seek, then any
	// filtered unit, then the first.
	start := -1
	for i, u := range units {
		if u.eqSeek() {
			start = i
			break
		}
	}
	if start < 0 {
		for i, u := range units {
			if len(u.preds) > 0 {
				start = i
				break
			}
		}
	}
	if start < 0 {
		start = 0
	}

	builder, sc, n, err := c.compileUnit(units[start], parent, env)
	if err != nil {
		return nil, nil, nil, err
	}
	// unitCols keeps each unit's compiled column bindings (a join unit's
	// carry its sides' qualifiers) for restoring the FROM column order.
	unitCols := make([][]colBinding, len(units))
	unitCols[start] = sc.cols
	joined := map[int]bool{start: true}
	joinOrder := []int{start}
	width := sc.width()

	remaining := len(units) - 1
	for remaining > 0 {
		// Find a unit connected to the joined set by equality conjuncts.
		type connection struct {
			unit     int
			leftExpr []ast.Expr // sides over joined units (or unit-free)
			rightCol []ast.Expr // sides over the candidate unit
			conjRefs []*conj
		}
		var best *connection
		for ui := range units {
			if joined[ui] {
				continue
			}
			conn := &connection{unit: ui}
			for _, cj := range conjs {
				if cj.applied {
					continue
				}
				// All referenced units must be the candidate or already joined.
				okUnits := true
				refsCandidate := false
				for ref := range cj.units {
					if ref == ui {
						refsCandidate = true
					} else if !joined[ref] {
						okUnits = false
					}
				}
				if !okUnits || !refsCandidate {
					continue
				}
				l, r, ok := eqSides(cj.f.Pred)
				if !ok {
					continue
				}
				lu, ru := unitsOf(l, units), unitsOf(r, units)
				onlyCandidate := func(m map[int]bool) bool { return len(m) == 1 && m[ui] }
				noCandidate := func(m map[int]bool) bool { return !m[ui] }
				switch {
				case onlyCandidate(ru) && noCandidate(lu):
					conn.leftExpr = append(conn.leftExpr, l)
					conn.rightCol = append(conn.rightCol, r)
					conn.conjRefs = append(conn.conjRefs, cj)
				case onlyCandidate(lu) && noCandidate(ru):
					conn.leftExpr = append(conn.leftExpr, r)
					conn.rightCol = append(conn.rightCol, l)
					conn.conjRefs = append(conn.conjRefs, cj)
				}
			}
			if len(conn.conjRefs) > 0 {
				best = conn
				break
			}
		}

		if best == nil {
			// No connection: cross join with the first remaining unit
			// (hash join with no keys).
			for ui := range units {
				if !joined[ui] {
					best = &connection{unit: ui}
					break
				}
			}
		}
		u := units[best.unit]

		// Prefer an index nested-loop join when the unit has an index on a
		// plain join column; otherwise hash join.
		idxCol := ""
		idxKey := -1
		if u.tab != nil {
			for i, rc := range best.rightCol {
				if cr, ok := rc.(*ast.ColRef); ok && u.tab.Index(cr.Name) != nil {
					idxCol, idxKey = cr.Name, i
					break
				}
			}
		}

		if idxCol != "" {
			// Index NL join: the right side sees the joined row pushed one
			// outer level down.
			rightBuilder, rightScope, rightNode, err := c.compileUnitSeek(u, parent, env, idxCol, best.leftExpr[idxKey], sc)
			if err != nil {
				return nil, nil, nil, err
			}
			unitCols[best.unit] = rightScope.cols
			combined := concatScopes(sc, rightScope)
			// Residual join conjuncts evaluated on the combined row.
			var residuals []exec.Scalar
			for i, cj := range best.conjRefs {
				cj.applied = true
				if i == idxKey {
					continue
				}
				s, err := c.compileExpr(cj.f.Pred, combined, env)
				if err != nil {
					return nil, nil, nil, err
				}
				residuals = append(residuals, s)
			}
			on := andScalars(residuals)
			left := builder
			lw, rw := width, rightScope.width()
			n = node(fmt.Sprintf("IndexNLJoin(%s.%s)", u.tab.Name, idxCol), n, rightNode)
			builder = annotate(func(bc *buildCtx) exec.Operator {
				return &exec.NLJoinOp{Left: left(bc), Right: rightBuilder(bc), LeftWidth: lw, RightWidth: rw, On: on}
			}, n)
			sc = combined
			width = sc.width()
		} else {
			rightBuilder, rightScope, rightNode, err := c.compileUnit(u, parent, env)
			if err != nil {
				return nil, nil, nil, err
			}
			unitCols[best.unit] = rightScope.cols
			var leftKeys, rightKeys []exec.Scalar
			for i, cj := range best.conjRefs {
				cj.applied = true
				lk, err := c.compileExpr(best.leftExpr[i], sc, env)
				if err != nil {
					return nil, nil, nil, err
				}
				rk, err := c.compileExpr(best.rightCol[i], rightScope, env)
				if err != nil {
					return nil, nil, nil, err
				}
				leftKeys = append(leftKeys, lk)
				rightKeys = append(rightKeys, rk)
			}
			left := builder
			lw, rw := width, rightScope.width()
			label := "HashJoin"
			if len(best.conjRefs) == 0 {
				label = "CrossJoin"
			}
			n = node(label, n, rightNode)
			builder = annotate(func(bc *buildCtx) exec.Operator {
				return &exec.HashJoinOp{
					Left: left(bc), Right: rightBuilder(bc),
					LeftWidth: lw, RightWidth: rw,
					LeftKeys: leftKeys, RightKeys: rightKeys,
				}
			}, n)
			sc = concatScopes(sc, rightScope)
			width = sc.width()
		}
		joined[best.unit] = true
		joinOrder = append(joinOrder, best.unit)
		remaining--

		// Apply conjuncts that became fully available.
		for _, cj := range conjs {
			if cj.applied {
				continue
			}
			ready := true
			for ref := range cj.units {
				if !joined[ref] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			cj.applied = true
			if builder, n, err = c.filter(builder, n, cj.f.Pred, cj.f.mark, sc, env); err != nil {
				return nil, nil, nil, err
			}
		}
	}

	// Remaining conjuncts (unit-free: variables, constants, outer refs).
	for _, cj := range conjs {
		if cj.applied {
			continue
		}
		cj.applied = true
		if builder, n, err = c.filter(builder, n, cj.f.Pred, cj.f.mark, sc, env); err != nil {
			return nil, nil, nil, err
		}
	}

	// Restore the user-visible FROM column order if greedy ordering
	// permuted the units.
	permuted := false
	for i, p := range joinOrder {
		if unitAtOrder := units[p].pos; unitAtOrder != i {
			permuted = true
			break
		}
	}
	if permuted {
		// Compute, for each unit in original order, where its columns start
		// in the joined row.
		offsets := make([]int, len(units))
		off := 0
		for _, p := range joinOrder {
			offsets[p] = off
			off += len(unitCols[p])
		}
		reordered := &scope{parent: parent}
		var exprs []exec.Scalar
		for _, u := range units {
			base := offsets[u.pos]
			for ci, col := range unitCols[u.pos] {
				exprs = append(exprs, exec.ColScalar(base+ci))
				reordered.add(col.Qual, col.Name, sqltypes.Unknown)
			}
		}
		inner := builder
		builder = func(bc *buildCtx) exec.Operator {
			return &exec.ProjectOp{Child: inner(bc), Exprs: exprs}
		}
		sc = reordered
	}
	return builder, sc, n, nil
}

// andScalars combines predicates with short-circuit AND; nil for empty.
func andScalars(preds []exec.Scalar) exec.Scalar {
	if len(preds) == 0 {
		return nil
	}
	if len(preds) == 1 {
		return preds[0]
	}
	return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
		for _, p := range preds {
			v, err := p(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if !v.Truthy() {
				return v, nil
			}
		}
		return sqltypes.NewBool(true), nil
	}
}

// filter wraps a builder with a Filter node for pred, labelled with the
// rewrite mark of the filter it came from.
func (c *compiler) filter(builder opBuilder, n *Node, pred ast.Expr, mark string, sc *scope, env *cteEnv) (opBuilder, *Node, error) {
	p, err := c.compileExpr(pred, sc, env)
	if err != nil {
		return nil, nil, err
	}
	fn := node("Filter"+rwSuffix(mark), n)
	return annotate(func(bc *buildCtx) exec.Operator {
		return &exec.FilterOp{Child: builder(bc), Pred: p}
	}, fn), fn, nil
}

// filters wraps a builder with one Filter node per filter, in order.
func (c *compiler) filters(builder opBuilder, n *Node, fs []*lFilter, sc *scope, env *cteEnv) (opBuilder, *Node, error) {
	for _, f := range fs {
		var err error
		if builder, n, err = c.filter(builder, n, f.Pred, f.mark, sc, env); err != nil {
			return nil, nil, err
		}
	}
	return builder, n, nil
}

// scanLeaf builds a table-reading leaf that a parallel aggregation can
// redirect to one partition of a shared split (the explain node's identity
// is the partition target).
func scanLeaf(label string, open func() exec.Operator) (opBuilder, *Node) {
	sn := node(label)
	return annotate(func(bc *buildCtx) exec.Operator {
		if p := bc.part; p != nil && p.target == sn {
			return &exec.ParallelScanOp{Split: p.split, Part: p.index}
		}
		return open()
	}, sn), sn
}

// compileUnit compiles one FROM unit with its assigned single-unit
// predicates, along the access path choose_access_path pinned on a base
// scan.
func (c *compiler) compileUnit(u *fromUnit, parent *scope, env *cteEnv) (opBuilder, *scope, *Node, error) {
	var builder opBuilder
	var n *Node
	sc := &scope{parent: parent}
	rest := u.preds

	switch t := u.node.(type) {
	case *lScan:
		tab, err := c.cat.ResolveTable(t.Name)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, col := range tab.Schema.Columns {
			sc.add(u.binding, col.Name, col.Type)
		}
		switch {
		case lateBound(t.Name):
			name := t.Name
			builder, n = scanLeaf("LateScan("+name+")", func() exec.Operator { return &exec.LateScanOp{Name: name} })
		case t.hint != nil:
			if builder, n, rest, err = c.compileHinted(u, t.hint, tab, parent, env); err != nil {
				return nil, nil, nil, err
			}
		default:
			builder, n = scanLeaf("Scan("+tab.Name+")", func() exec.Operator { return &exec.ScanOp{Table: tab} })
		}
	case *lCTERef:
		b := env.lookup(t.Name)
		if b == nil {
			return nil, nil, nil, errf("unknown CTE %s", t.Name)
		}
		for _, col := range b.cols {
			sc.add(u.binding, col.Name, col.Type)
		}
		if b.deltaKey != nil {
			key := b.deltaKey
			n = node("DeltaScan(" + t.Name + ")")
			builder = annotate(func(bc *buildCtx) exec.Operator {
				return &exec.DeltaScanOp{Source: bc.delta(key)}
			}, n)
		} else {
			var err error
			if builder, n, err = b.instantiate(); err != nil {
				return nil, nil, nil, err
			}
		}
	case *lDerived:
		b, cols, sn, err := c.compileLogical(t.Child, parent, env)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, cn := range cols {
			sc.add(u.binding, cn, sqltypes.Unknown)
		}
		n = node("Derived("+t.Alias+")"+rwSuffix(t.mark), sn)
		builder = annotate(b, n)
	case *lJoin:
		b, jsc, jn, err := c.compileJoinExpr(t, parent, env)
		if err != nil {
			return nil, nil, nil, err
		}
		builder, sc, n = b, jsc, jn
	default:
		return nil, nil, nil, errf("unknown table expression %T", u.node)
	}

	builder, n, err := c.filters(builder, n, rest, sc, env)
	return builder, sc, n, err
}

// compileHinted compiles a base-table unit along the access path the
// choose_access_path pass pinned on it: a forced full scan, an index
// equality seek, or an ordered-index range seek. Predicates whose work the
// chosen path absorbs are dropped from the residual filter list. Seek keys
// and bounds see only the enclosing scopes.
func (c *compiler) compileHinted(u *fromUnit, h *accessHint, tab *storage.Table, parent *scope, env *cteEnv) (opBuilder, *Node, []*lFilter, error) {
	label := rwSuffix(h.mark)
	if h.cost > 0 {
		label += costSuffix(h.cost)
	}
	outer := &scope{parent: parent}
	switch h.kind {
	case accessEq:
		keyScalar, err := c.compileExpr(h.key, outer, env)
		if err != nil {
			return nil, nil, nil, err
		}
		n := node(fmt.Sprintf("IndexSeek(%s.%s)", tab.Name, h.col) + label)
		builder := annotate(func(bc *buildCtx) exec.Operator {
			return &exec.IndexSeekOp{Table: tab, Column: h.col, Key: keyScalar}
		}, n)
		return builder, n, withoutPreds(u.preds, h.eqConj), nil
	case accessRange:
		var lo, hi exec.Scalar
		var err error
		if h.lo != nil {
			if lo, err = c.compileExpr(h.lo, outer, env); err != nil {
				return nil, nil, nil, err
			}
		}
		if h.hi != nil {
			if hi, err = c.compileExpr(h.hi, outer, env); err != nil {
				return nil, nil, nil, err
			}
		}
		n := node(fmt.Sprintf("RangeSeek(%s.%s)", tab.Name, h.col) + label)
		builder := annotate(func(bc *buildCtx) exec.Operator {
			return &exec.RangeSeekOp{Table: tab, Column: h.col, Lo: lo, Hi: hi, LoStrict: h.loStrict, HiStrict: h.hiStrict}
		}, n)
		return builder, n, withoutPreds(u.preds, h.loConj, h.hiConj), nil
	}
	// Forced full scan: cheaper than any seek candidate.
	builder, n := scanLeaf("Scan("+tab.Name+")"+label, func() exec.Operator { return &exec.ScanOp{Table: tab} })
	return builder, n, u.preds, nil
}

// withoutPreds filters preds down to the members not absorbed by a seek.
func withoutPreds(preds []*lFilter, drop ...*lFilter) []*lFilter {
	var out []*lFilter
	for _, p := range preds {
		if !slices.Contains(drop, p) {
			out = append(out, p)
		}
	}
	return out
}

// compileUnitSeek compiles a unit as the right side of an index nested-loop
// join: an index seek keyed by an expression over the joined row (one outer
// level down), with the unit's own predicates as filters above it.
func (c *compiler) compileUnitSeek(u *fromUnit, parent *scope, env *cteEnv, col string, key ast.Expr, joinedScope *scope) (opBuilder, *scope, *Node, error) {
	// The key references the joined row, which the NL join pushes one level
	// onto the outer stack: compile it against an empty scope whose parent
	// is the joined scope.
	keyScalar, err := c.compileExpr(key, &scope{parent: joinedScope}, env)
	if err != nil {
		return nil, nil, nil, err
	}
	tab := u.tab
	sc := &scope{parent: &scope{parent: parent}}
	for _, cdef := range tab.Schema.Columns {
		sc.add(u.binding, cdef.Name, cdef.Type)
	}
	n := node(fmt.Sprintf("IndexSeek(%s.%s)", tab.Name, col))
	builder := annotate(func(bc *buildCtx) exec.Operator {
		return &exec.IndexSeekOp{Table: tab, Column: col, Key: keyScalar}
	}, n)
	builder, n, err = c.filters(builder, n, u.preds, sc, env)
	return builder, sc, n, err
}

// compileJoinExpr compiles an explicit ANSI join tree.
func (c *compiler) compileJoinExpr(j *lJoin, parent *scope, env *cteEnv) (opBuilder, *scope, *Node, error) {
	lUnit, err := c.newFromUnit(0, j.L, env)
	if err != nil {
		return nil, nil, nil, err
	}
	rUnit, err := c.newFromUnit(1, j.R, env)
	if err != nil {
		return nil, nil, nil, err
	}
	leftB, leftSc, leftN, err := c.compileUnit(lUnit, parent, env)
	if err != nil {
		return nil, nil, nil, err
	}
	suffix := ""
	if j.mark != "" {
		suffix = rwSuffix(j.mark) + costSuffix(j.cost)
	}

	// Try to split the ON condition into equi-key pairs.
	pair := []*fromUnit{lUnit, rUnit}
	var eqL, eqR, residual []ast.Expr
	for _, cj := range splitConjuncts(j.On) {
		l, r, ok := eqSides(cj)
		if !ok {
			residual = append(residual, cj)
			continue
		}
		lu, ru := unitsOf(l, pair), unitsOf(r, pair)
		switch {
		case len(lu) == 1 && lu[0] && len(ru) == 1 && ru[1]:
			eqL = append(eqL, l)
			eqR = append(eqR, r)
		case len(lu) == 1 && lu[1] && len(ru) == 1 && ru[0]:
			eqL = append(eqL, r)
			eqR = append(eqR, l)
		default:
			residual = append(residual, cj)
		}
	}

	if len(eqL) > 0 {
		// Hash join (no outer-level shift for the right side).
		rightB, rightSc, rightN, err := c.compileUnit(rUnit, parent, env)
		if err != nil {
			return nil, nil, nil, err
		}
		combined := concatScopes(leftSc, rightSc)
		var leftKeys, rightKeys []exec.Scalar
		for i := range eqL {
			lk, err := c.compileExpr(eqL[i], leftSc, env)
			if err != nil {
				return nil, nil, nil, err
			}
			rk, err := c.compileExpr(eqR[i], rightSc, env)
			if err != nil {
				return nil, nil, nil, err
			}
			leftKeys = append(leftKeys, lk)
			rightKeys = append(rightKeys, rk)
		}
		var res []exec.Scalar
		for _, e := range residual {
			s, err := c.compileExpr(e, combined, env)
			if err != nil {
				return nil, nil, nil, err
			}
			res = append(res, s)
		}
		lw, rw := leftSc.width(), rightSc.width()
		outer := j.Kind == ast.JoinLeft
		jn := node("HashJoin("+j.Kind.String()+")"+suffix, leftN, rightN)
		builder := annotate(func(bc *buildCtx) exec.Operator {
			return &exec.HashJoinOp{
				Left: leftB(bc), Right: rightB(bc),
				LeftWidth: lw, RightWidth: rw,
				LeftKeys: leftKeys, RightKeys: rightKeys,
				Residual: andScalars(res), LeftOuter: outer,
			}
		}, jn)
		return builder, combined, jn, nil
	}

	// Nested-loop join; the right side is re-opened per left row with the
	// left row pushed one outer level down.
	rightB, rightSc, rightN, err := c.compileUnit(rUnit, &scope{parent: parent}, env)
	if err != nil {
		return nil, nil, nil, err
	}
	// Lift the right scope so the combined scope chains to the real parent.
	liftedRight := &scope{parent: parent, cols: rightSc.cols}
	combined := concatScopes(leftSc, liftedRight)
	var on exec.Scalar
	if j.On != nil {
		if on, err = c.compileExpr(j.On, combined, env); err != nil {
			return nil, nil, nil, err
		}
	}
	lw, rw := leftSc.width(), rightSc.width()
	outer := j.Kind == ast.JoinLeft
	jn := node("NLJoin("+j.Kind.String()+")"+suffix, leftN, rightN)
	builder := annotate(func(bc *buildCtx) exec.Operator {
		return &exec.NLJoinOp{Left: leftB(bc), Right: rightB(bc), LeftWidth: lw, RightWidth: rw, On: on, LeftOuter: outer}
	}, jn)
	return builder, combined, jn, nil
}
