// Cost-based passes: choose_access_path and reorder_joins.
//
// Both run once, after the local rewrite rules reach fixpoint (predicate
// placement and constant folding are final by then), and both only decide
// among physically different but semantically equivalent shapes:
//
//   - choose_access_path costs the access paths available to each base
//     scan — full scan, index equality seek, ordered-index range seek —
//     from table statistics and equi-depth histograms, and pins the
//     choice on the lScan as an accessHint the physical compiler obeys.
//     It is the planner's only access-path decider. Cost formulas (N =
//     live rows, NDV = distinct values, sel = histogram range
//     selectivity):
//
//     scan   N
//     eq     1 + N/NDV
//     range  log2(N) + 1 + sel*N
//
//     An equality seek is never costed out in favour of a full scan: many
//     plans (scalar subqueries cached by the engine, compiled aggregate
//     bodies) carry no stats stamps and are never replanned, so a table
//     that is empty at compile time must not pin a scan forever. A range
//     seek beats an equality seek only when strictly cheaper; ties prefer
//     the equality seek, then the range seek, then the scan.
//
//   - reorder_joins flattens maximal all-inner explicit join chains and
//     greedily re-joins them smallest-estimated-cardinality-first (staying
//     connected through equality conjuncts when possible). Inner joins
//     guarantee no row order, so the rule preserves the result multiset
//     but not row order — the one documented relaxation of the rewrite
//     pass's order-identity contract.
package plan

import (
	"fmt"
	"math"
	"strings"

	"aggify/internal/ast"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// defaultSelectivity is the guess for predicates the histogram cannot
// estimate (non-literal bounds, unhistogrammed columns, opaque shapes).
const defaultSelectivity = 0.25

type accessKind int

const (
	accessScan accessKind = iota
	accessEq
	accessRange
)

// accessHint pins the physical access path for one base-table scan. mark
// is the EXPLAIN annotation of the chosen path: the rule itself plus the
// marks of the filters the seek consumes.
type accessHint struct {
	kind accessKind
	col  string
	cost float64 // 0 when the path was the only candidate, so not costed
	mark string
	// Equality seek: key expression and the filter it consumes.
	key    ast.Expr
	eqConj *lFilter
	// Range seek: bound expressions (nil = unbounded), strictness, and
	// the filters the bounds consume.
	lo, hi             ast.Expr
	loStrict, hiStrict bool
	loConj, hiConj     *lFilter
}

// costSuffix renders the EXPLAIN cost annotation.
func costSuffix(c float64) string { return fmt.Sprintf(" cost=%.1f", c) }

// --- choose_access_path ---

// choosePass walks the IR and decides an access path for the base scans
// of every block.
func (rw *rewriter) choosePass(n lNode) lNode {
	n = mapLogicalChildren(n, rw.choosePass)
	if p, ok := n.(*lProject); ok {
		sp := spineOf(p)
		rw.chooseBlock(sp.from, sp.where)
	}
	return n
}

// chooseBlock classifies a block's WHERE filters by the FROM units they
// reference — with unitsOf, the same classification compileFrom applies —
// and decides access paths for the scans that own single-unit filters. A
// seek key may reference anything the block's own units do not bind:
// literals, variables, parameters, outer-scope columns.
func (rw *rewriter) chooseBlock(from lNode, where []*lFilter) {
	if len(where) == 0 {
		return
	}
	var refs []unitRef
	rw.collectUnits(from, func(lNode) {}, false, false, false, &refs)
	units := make([]*fromUnit, len(refs))
	for i, r := range refs {
		units[i] = &fromUnit{node: r.node, binding: r.binding, cols: r.cols}
	}
	free := func(key ast.Expr) bool { return len(unitsOf(key, units)) == 0 }
	perUnit := map[int][]*lFilter{}
	for i := len(where) - 1; i >= 0; i-- { // outermost filter first
		if refd := unitsOf(where[i].Pred, units); len(refd) == 1 {
			for u := range refd {
				perUnit[u] = append(perUnit[u], where[i])
			}
		}
	}
	for i, u := range units {
		if scan, ok := u.node.(*lScan); ok && len(perUnit[i]) > 0 {
			rw.decideAccess(scan, perUnit[i], free)
		}
	}
}

// decideAccess costs the candidate access paths for one scan and pins the
// choice. Fires only when there is at least one seek candidate; index-less
// scans compile as plain scans. A lone equality candidate is pinned
// without consulting statistics (and so without a cost): it cannot lose to
// a scan, and computing a table's statistics means a full pass over it.
func (rw *rewriter) decideAccess(scan *lScan, conjs []*lFilter, free func(ast.Expr) bool) {
	if lateBound(scan.Name) {
		return
	}
	tab, err := rw.c.cat.ResolveTable(scan.Name)
	if err != nil {
		return
	}
	rule := ruleName(RuleChooseAccessPath)
	var eqs, ranges []*accessHint
	for _, cj := range conjs {
		if col, key, ok := eqColKey(cj.Pred, tab, free); ok && tab.Index(col) != nil {
			eqs = append(eqs, &accessHint{kind: accessEq, col: col, key: key, eqConj: cj, mark: addMark(cj.mark, rule)})
		}
	}
	for _, d := range tab.IndexDefs() {
		if !d.Ordered {
			continue
		}
		if h := rangeBounds(conjs, d.Column, tab); h != nil {
			ranges = append(ranges, h)
		}
	}
	if len(eqs) == 0 && len(ranges) == 0 {
		return
	}
	rw.fire(RuleChooseAccessPath)
	if len(eqs) == 1 && len(ranges) == 0 {
		scan.hint = eqs[0]
		return
	}

	st := tab.Statistics()
	n := math.Max(float64(st.Rows), 1)
	// Best equality seek: lowest 1 + N/NDV; best range seek: lowest
	// log2(N) + 1 + sel*N. Earlier candidates win ties.
	var eqBest, rangeBest *accessHint
	for _, h := range eqs {
		h.cost = 1 + n/math.Max(float64(st.DistinctOf(tab.Schema, h.col)), 1)
		if eqBest == nil || h.cost < eqBest.cost {
			eqBest = h
		}
	}
	for _, h := range ranges {
		h.cost = math.Log2(n) + 1 + rangeSelectivity(st, h.col, h)*n
		if rangeBest == nil || h.cost < rangeBest.cost {
			rangeBest = h
		}
	}
	switch {
	case eqBest != nil && (rangeBest == nil || eqBest.cost <= rangeBest.cost):
		scan.hint = eqBest
	case eqBest != nil || rangeBest.cost < n:
		for _, cj := range []*lFilter{rangeBest.loConj, rangeBest.hiConj} {
			if cj != nil {
				rangeBest.mark = addMark(rangeBest.mark, cj.mark)
			}
		}
		rangeBest.mark = addMark(rangeBest.mark, rule)
		scan.hint = rangeBest
	default:
		scan.hint = &accessHint{kind: accessScan, cost: n, mark: rule}
	}
}

// eqColKey matches `col = key` / `key = col` where col is a bare column of
// tab and free(key) holds.
func eqColKey(e ast.Expr, tab *storage.Table, free func(ast.Expr) bool) (string, ast.Expr, bool) {
	b, ok := e.(*ast.BinExpr)
	if !ok || b.Op != sqltypes.OpEq {
		return "", nil, false
	}
	for _, flip := range []struct{ col, key ast.Expr }{{b.L, b.R}, {b.R, b.L}} {
		cr, isCol := flip.col.(*ast.ColRef)
		if !isCol || tab.Schema.Ordinal(cr.Name) < 0 || !free(flip.key) {
			continue
		}
		return cr.Name, flip.key, true
	}
	return "", nil, false
}

// noColRefs reports whether e references no column at all (so it is
// evaluable before any scan opens).
func noColRefs(e ast.Expr) bool { return len(ast.ColRefs(e)) == 0 }

// rangeBounds combines comparison conjuncts over col into one [lo, hi]
// range hint (first conjunct per side wins); nil when no bound applies.
func rangeBounds(conjs []*lFilter, col string, tab *storage.Table) *accessHint {
	h := &accessHint{kind: accessRange, col: col}
	for _, cj := range conjs {
		b, ok := cj.Pred.(*ast.BinExpr)
		if !ok || ast.HasSubquery(b) {
			continue
		}
		var cmp sqltypes.BinaryOp
		var bound ast.Expr
		switch {
		case isColSide(b.L, col, tab) && len(ast.ColRefs(b.R)) == 0:
			cmp, bound = b.Op, b.R
		case isColSide(b.R, col, tab) && len(ast.ColRefs(b.L)) == 0:
			// Flip: key OP col ≡ col OP' key.
			switch b.Op {
			case sqltypes.OpLt:
				cmp = sqltypes.OpGt
			case sqltypes.OpLe:
				cmp = sqltypes.OpGe
			case sqltypes.OpGt:
				cmp = sqltypes.OpLt
			case sqltypes.OpGe:
				cmp = sqltypes.OpLe
			default:
				continue
			}
			bound = b.L
		default:
			continue
		}
		switch cmp {
		case sqltypes.OpLt:
			if h.hi == nil {
				h.hi, h.hiStrict, h.hiConj = bound, true, cj
			}
		case sqltypes.OpLe:
			if h.hi == nil {
				h.hi, h.hiStrict, h.hiConj = bound, false, cj
			}
		case sqltypes.OpGt:
			if h.lo == nil {
				h.lo, h.loStrict, h.loConj = bound, true, cj
			}
		case sqltypes.OpGe:
			if h.lo == nil {
				h.lo, h.loStrict, h.loConj = bound, false, cj
			}
		}
	}
	if h.lo == nil && h.hi == nil {
		return nil
	}
	return h
}

func isColSide(e ast.Expr, col string, tab *storage.Table) bool {
	cr, ok := e.(*ast.ColRef)
	return ok && strings.EqualFold(cr.Name, col) && tab.Schema.Ordinal(cr.Name) >= 0
}

// rangeSelectivity estimates the selected fraction from the column's
// histogram when the bounds are literals; defaultSelectivity otherwise.
func rangeSelectivity(st storage.TableStatistics, col string, h *accessHint) float64 {
	hist, ok := st.Histograms[col]
	if !ok {
		hist, ok = st.Histograms[strings.ToLower(col)]
	}
	if !ok {
		return defaultSelectivity
	}
	lo, hi := sqltypes.Null, sqltypes.Null
	if h.lo != nil {
		lit, isLit := h.lo.(*ast.Literal)
		if !isLit {
			return defaultSelectivity
		}
		lo = lit.Val
	}
	if h.hi != nil {
		lit, isLit := h.hi.(*ast.Literal)
		if !isLit {
			return defaultSelectivity
		}
		hi = lit.Val
	}
	return hist.SelectivityRange(lo, hi, h.loStrict, h.hiStrict)
}

// --- reorder_joins ---

func (rw *rewriter) reorderPass(n lNode) lNode {
	if j, ok := n.(*lJoin); ok {
		return rw.reorderChain(j)
	}
	return mapLogicalChildren(n, rw.reorderPass)
}

// reorderChain flattens a maximal all-inner join chain rooted at j and
// greedily re-joins it smallest-estimated-leaf-first. Non-inner joins pass
// through untouched (their subtrees still recurse).
func (rw *rewriter) reorderChain(j *lJoin) lNode {
	if j.Kind != ast.JoinInner {
		j.L = rw.reorderPass(j.L)
		j.R = rw.reorderPass(j.R)
		return j
	}
	var leaves []lNode
	var conjs []ast.Expr
	flattenInner(j, &leaves, &conjs)
	for i := range leaves {
		leaves[i] = rw.reorderPass(leaves[i]) // derived bodies may hold chains
	}

	// Feasibility: every leaf must expose known columns under a unique
	// binding, every conjunct must be subquery-free, and every leaf must be
	// estimable. Anything else keeps the user's order.
	infos := make([]unitRef, len(leaves))
	bindings := map[string]bool{}
	for i, leaf := range leaves {
		u := rw.unitRef(leaf, nil, false, false, false)
		if !u.known || u.binding == "" || bindings[u.binding] {
			return j
		}
		bindings[u.binding] = true
		infos[i] = u
	}
	est := make([]float64, len(leaves))
	for i, leaf := range leaves {
		e, ok := rw.estimateLeaf(leaf)
		if !ok {
			return j
		}
		est[i] = e
	}
	cinfos := make([]conjInfo, len(conjs))
	for ci, cj := range conjs {
		if ast.HasSubquery(cj) {
			return j
		}
		refs := map[int]bool{}
		top := false
		for _, cr := range ast.ColRefs(cj) {
			idx := -1
			if cr.Table != "" {
				for i, inf := range infos {
					if inf.binding == cr.Table && containsStr(inf.cols, cr.Name) {
						idx = i
						break
					}
				}
			} else {
				for i, inf := range infos {
					if containsStr(inf.cols, cr.Name) {
						if idx != -1 {
							return j // ambiguous unqualified reference
						}
						idx = i
					}
				}
			}
			if idx == -1 {
				top = true
			} else {
				refs[idx] = true
			}
		}
		cinfos[ci] = conjInfo{refs: refs, top: top || len(refs) == 0}
	}

	// Greedy order: start from the smallest leaf, then repeatedly take the
	// smallest leaf connected to the placed set through a conjunct; fall
	// back to the smallest remaining leaf when nothing connects.
	placed := make([]bool, len(leaves))
	order := make([]int, 0, len(leaves))
	for len(order) < len(leaves) {
		pick := -1
		for i := range leaves {
			if placed[i] {
				continue
			}
			if len(order) > 0 && !connected(i, placed, cinfos) {
				continue
			}
			if pick == -1 || est[i] < est[pick] {
				pick = i
			}
		}
		if pick == -1 {
			for i := range leaves {
				if !placed[i] && (pick == -1 || est[i] < est[pick]) {
					pick = i
				}
			}
		}
		placed[pick] = true
		order = append(order, pick)
	}
	same := true
	for i, p := range order {
		if p != i {
			same = false
			break
		}
	}
	if same {
		return j
	}

	// Rebuild left-deep, attaching each conjunct to the earliest join where
	// all its referenced leaves are available; top-anchored conjuncts land
	// on the final join.
	usedConj := make([]bool, len(conjs))
	inSet := map[int]bool{order[0]: true}
	cur := leaves[order[0]]
	for k := 1; k < len(order); k++ {
		inSet[order[k]] = true
		last := k == len(order)-1
		var on ast.Expr
		for ci, cj := range conjs {
			if usedConj[ci] {
				continue
			}
			info := cinfos[ci]
			ready := !info.top
			for r := range info.refs {
				if !inSet[r] {
					ready = false
					break
				}
			}
			if ready || last {
				usedConj[ci] = true
				on = ast.And(on, cj)
			}
		}
		cur = &lJoin{
			Kind: ast.JoinInner, L: cur, R: leaves[order[k]], On: on,
			mark: ruleName(RuleReorderJoins), cost: est[order[k]],
		}
	}
	rw.fire(RuleReorderJoins)
	return cur
}

// conjInfo classifies one flattened join conjunct: the leaves it
// references, and whether an unresolved (outer) reference anchors it to
// the final join.
type conjInfo struct {
	refs map[int]bool
	top  bool
}

// connected reports whether leaf i shares a conjunct with the placed set.
func connected(i int, placed []bool, cinfos []conjInfo) bool {
	for _, ci := range cinfos {
		if ci.top || !ci.refs[i] {
			continue
		}
		for r := range ci.refs {
			if r != i && placed[r] {
				return true
			}
		}
	}
	return false
}

// flattenInner expands nested inner joins into leaves + conjuncts.
func flattenInner(n lNode, leaves *[]lNode, conjs *[]ast.Expr) {
	if j, ok := n.(*lJoin); ok && j.Kind == ast.JoinInner {
		flattenInner(j.L, leaves, conjs)
		flattenInner(j.R, leaves, conjs)
		*conjs = append(*conjs, splitConjuncts(j.On)...)
		return
	}
	*leaves = append(*leaves, n)
}

// estimateLeaf estimates a join leaf's output cardinality: base-table rows
// for a scan, rows scaled by per-predicate selectivity for a filtered
// derived table over one scan. Anything else is inestimable.
func (rw *rewriter) estimateLeaf(n lNode) (float64, bool) {
	switch t := n.(type) {
	case *lScan:
		tab, ok := rw.leafTable(t)
		if !ok {
			return 0, false
		}
		return math.Max(float64(tab.Statistics().Rows), 1), true
	case *lDerived:
		inner := t.Child
		for {
			switch w := inner.(type) {
			case *lWith:
				inner = w.In
			case *lSort:
				inner = w.In
			case *lProject:
				if w.Distinct {
					return 0, false
				}
				preds, c := filterChain(w.In)
				s, ok := c.(*lScan)
				if !ok {
					return 0, false
				}
				tab, ok := rw.leafTable(s)
				if !ok {
					return 0, false
				}
				st := tab.Statistics()
				rows := math.Max(float64(st.Rows), 1)
				for _, p := range preds {
					rows *= predSelectivity(p.Pred, tab, st)
				}
				return math.Max(rows, 0.1), true
			default:
				return 0, false
			}
		}
	}
	return 0, false
}

func (rw *rewriter) leafTable(s *lScan) (*storage.Table, bool) {
	if lateBound(s.Name) {
		return nil, false
	}
	tab, err := rw.c.cat.ResolveTable(s.Name)
	if err != nil {
		return nil, false
	}
	return tab, true
}

// predSelectivity estimates one predicate's selectivity: 1/NDV for an
// equality on a known column, histogram range fraction for a literal
// comparison, defaultSelectivity otherwise.
func predSelectivity(p ast.Expr, tab *storage.Table, st storage.TableStatistics) float64 {
	b, ok := p.(*ast.BinExpr)
	if !ok {
		return defaultSelectivity
	}
	if b.Op == sqltypes.OpEq {
		if col, _, ok := eqColKey(p, tab, noColRefs); ok {
			ndv := float64(st.DistinctOf(tab.Schema, col))
			if ndv < 1 {
				ndv = 1
			}
			return clampSel(1 / ndv)
		}
		return defaultSelectivity
	}
	for _, side := range []struct{ col, key ast.Expr }{{b.L, b.R}, {b.R, b.L}} {
		cr, isCol := side.col.(*ast.ColRef)
		if !isCol || tab.Schema.Ordinal(cr.Name) < 0 {
			continue
		}
		if h := rangeBounds([]*lFilter{{Pred: p}}, cr.Name, tab); h != nil {
			return clampSel(rangeSelectivity(st, cr.Name, h))
		}
	}
	return defaultSelectivity
}

func clampSel(s float64) float64 {
	if s < 1e-6 {
		return 1e-6
	}
	if s > 1 {
		return 1
	}
	return s
}
