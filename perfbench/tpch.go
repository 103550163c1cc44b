package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"aggify/internal/ast"
	"aggify/internal/bench"
	"aggify/internal/core"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/froid"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"aggify/internal/tpch"
	"aggify/internal/trace"
)

// tpchQueries are each TPC-H workload's Fig 9(a) queries.
var tpchQueries = map[string][]string{
	// The UDF runs once per outer row: per-call cursor, plan-cache and
	// worktable overhead dominates.
	"tpch-invoke": {"Q2", "Q13", "Q18"},
	// Each loop runs once over a large join: executor operators and
	// aggregate Step dominate.
	"tpch-scan": {"Q14", "Q19", "Q21"},
}

// tpchReps is how many times a pass runs a query's modes. The short queries
// (tens of milliseconds) repeat, so their paired gains rest on as many
// samples as the long ones' within the same time.
var tpchReps = map[string]int{"Q2": 4, "Q13": 4, "Q14": 4}

func reps(id string) int {
	if n := tpchReps[id]; n > 0 {
		return n
	}
	return 1
}

// oracle says how to check a driver query's result against the tree-walking
// interpreter's value of the original UDF.
type oracle struct {
	Func   string
	KeyMax func(tpch.Sizes) int // driver keys are 1..KeyMax; nil = no key
	Args   []sqltypes.Value     // arguments of a keyless call
	Keep   func(v float64) bool // driver query's filter on the UDF value (Q18)
}

var oracles = map[string]oracle{
	"Q2":  {Func: "mincostsupp", KeyMax: func(s tpch.Sizes) int { return s.Parts }},
	"Q13": {Func: "countorders", KeyMax: func(s tpch.Sizes) int { return s.Customers }},
	"Q18": {Func: "sumqty", KeyMax: func(s tpch.Sizes) int { return s.Orders }, Keep: func(v float64) bool { return v > 120 }},
	"Q21": {Func: "waitingcount", KeyMax: func(s tpch.Sizes) int { return s.Suppliers }},
	"Q14": {Func: "promorevenue", Args: []sqltypes.Value{sqltypes.MustDate("1995-09-01")}},
	"Q19": {Func: "discountedrevenue"},
}

var tpchModes = []bench.Mode{bench.Original, bench.Aggify, bench.AggifyPlus}

// buildTPCH loads TPC-H from the seed and registers each query's UDFs in
// original and Aggify-transformed form.
func buildTPCH(cfg config, queries []*tpch.WorkloadQuery) (*bench.Env, error) {
	eng := engine.New()
	interp.Install(eng)
	eng.DefaultMaxDOP = 1
	if err := tpch.LoadSeeded(eng, cfg.Sizes.TPCHSF, cfg.Seed); err != nil {
		return nil, err
	}
	env := &bench.Env{Eng: eng, SF: cfg.Sizes.TPCHSF, AggifiedFuncs: map[string]*ast.CreateFunction{}}
	for _, q := range queries {
		if err := env.RegisterWorkloadFuncs(q.Setup, q.Funcs); err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
	}
	return env, nil
}

type tpchRun struct {
	cfg     config
	env     *bench.Env
	queries []*tpch.WorkloadQuery
	sess    *engine.Session // the one measurement session
	side    *engine.Session // oracle calls and stat views, off the books
	tr      *trace.Tracer   // nil in untraced passes
	spans   *spans
	rep     *report
	order   *rand.Rand
	sums    map[string]uint64 // reference checksum per query
	checked map[string]bool   // query/mode pairs verified by the oracle
	pair    int

	// Per-mode storage counters and per-pass derived counters, summed over
	// the passes that collect them.
	storage map[string]storage.Snapshot
	rows    int64
	opTimes map[string]float64 // per-layer sums from instrumented plans
}

func runTPCH(cfg config) (*report, error) {
	ids := tpchQueries[cfg.Workload]
	var queries []*tpch.WorkloadQuery
	for _, id := range ids {
		q, _ := tpch.QueryByID(id)
		queries = append(queries, q)
	}
	rep := &report{}
	m := &measurement{}
	builds := cfg.Sizes.SetupBuilds
	if cfg.Trace {
		builds = 1
	}
	var env *bench.Env
	for i := 0; i < builds; i++ {
		env = nil
		heapMB() // collect the previous build before timing the next
		start := time.Now()
		e, err := buildTPCH(cfg, queries)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.Setup = append(m.Setup, time.Since(start))
		env = e
	}
	sz := tpch.SizesFor(cfg.Sizes.TPCHSF)
	w := &tpchRun{
		cfg: cfg, env: env, queries: queries,
		sess: env.Eng.NewSession(), side: env.Eng.NewSession(),
		rep:   rep,
		order: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed_0001)),
		sums:  map[string]uint64{}, checked: map[string]bool{},
		storage: map[string]storage.Snapshot{}, opTimes: map[string]float64{},
	}
	w.sess.SetMaxDOP(1)
	rep.linef("workload %s seed %d: TPC-H SF %g (%d parts, %d customers, %d orders), queries %s, one embedded session, MAXDOP 1",
		cfg.Workload, cfg.Seed, cfg.Sizes.TPCHSF, sz.Parts, sz.Customers, sz.Orders, strings.Join(ids, " "))

	// One unmeasured pass compiles the routines and fills the plan cache;
	// it is checked like any other.
	w.pass(-1, nil)
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Trace {
		measure(budget, m, func(i int) { w.pass(i, m) })
		endToEnd(rep, m)
		return rep, nil
	}
	return rep, w.traced(budget)
}

// pass runs every query in every mode, queries in a seeded order and each
// query's three modes back to back in a seeded order, so the paired gains
// compare runs made moments apart. A short query repeats its three modes
// reps times.
func (w *tpchRun) pass(i int, m *measurement) {
	alloc0 := allocated()
	for _, qi := range w.order.Perm(len(w.queries)) {
		q := w.queries[qi]
		n := reps(q.ID)
		for r := 0; r < n; r++ {
			for _, mi := range w.order.Perm(len(tpchModes)) {
				mode := tpchModes[mi]
				// Each program starts from a collected heap, so it pays for
				// the collections its own garbage causes and not for its
				// predecessor's.
				runtime.GC()
				w.rep.Attempted++
				dur, err := w.program(q, mode)
				if err != nil {
					w.rep.fail("%s %s pass %d: %v", q.ID, mode, i, err)
				} else if m != nil {
					m.Samples = append(m.Samples, sample{Program: q.ID, Mode: mode.String(), Pass: i, Pair: w.pair,
						Share: 1 / float64(n), Dur: dur})
				}
			}
			w.pair++
		}
	}
	if m != nil {
		m.PassAlloc = append(m.PassAlloc, allocated()-alloc0)
	}
}

// program runs one driver query in one mode and checks its result. Its
// time covers parsing, the mode's rewrite, planning and execution.
func (w *tpchRun) program(q *tpch.WorkloadQuery, mode bench.Mode) (time.Duration, error) {
	src := q.Driver(0)
	root := startProgram(w.tr, "bench.program", q.ID, mode.String())
	before := w.sess.Stats.Snapshot()
	stop := make(chan struct{})
	timer := time.AfterFunc(programTimeout, func() { close(stop) })
	w.sess.Interrupt = stop
	start := time.Now()
	rows, ins, err := w.execute(root.Context(), src, mode)
	dur := time.Since(start)
	timer.Stop()
	root.End()
	w.spans.afterProgram()
	if errors.Is(err, exec.ErrInterrupted) {
		return 0, fmt.Errorf("timed out after %v", programTimeout)
	}
	if err != nil {
		return 0, err
	}
	st := w.sess.Stats.Snapshot().Sub(before)
	w.storage[mode.String()] = w.storage[mode.String()].Add(st)
	w.rows += int64(len(rows))
	if ins != nil {
		w.operatorTimes(ins, mode)
	}
	if err := w.check(q, mode, rows); err != nil {
		return 0, err
	}
	return dur, nil
}

// programTimeout bounds one program; an expired run counts as failed.
const programTimeout = 60 * time.Second

// execute parses the driver query, applies the mode's rewrite (rename to the
// aggified UDFs, or Froid-inline them for Aggify+), then plans and runs it.
// Traced runs call the planner and the instrumented executor themselves.
func (w *tpchRun) execute(ctx trace.SpanContext, src string, mode bench.Mode) ([]exec.Row, *plan.Instrumentation, error) {
	sp := w.tr.StartSpan(ctx, "parser.Parse")
	stmts, err := parser.Parse(src)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sel := stmts[0].(*ast.QueryStmt).Query
	switch mode {
	case bench.Aggify:
		renameCalls(sel, w.env.AggifiedFuncs)
	case bench.AggifyPlus:
		sp := w.tr.StartSpan(ctx, "froid.InlineInSelect")
		sel, _, err = froid.InlineInSelect(sel, func(name string) (*ast.CreateFunction, bool) {
			def, ok := w.env.AggifiedFuncs[name]
			return def, ok
		})
		sp.End()
		if err != nil {
			return nil, nil, err
		}
	}
	rec := w.sess.BeginStmt(src)
	var rows []exec.Row
	var ins *plan.Instrumentation
	if w.tr == nil {
		_, rows, err = w.sess.Query(sel, nil)
	} else {
		ectx := w.sess.Ctx(nil, nil)
		release := w.sess.PinRead(ectx)
		sp := w.tr.StartSpan(ctx, "engine.PlanQuery")
		var p *plan.Plan
		p, err = w.sess.PlanQuery(sel, nil)
		sp.End()
		if err == nil {
			sp := w.tr.StartSpan(ctx, "plan.RunInstrumented")
			rows, ins, err = p.RunInstrumented(ectx)
			sp.End()
		}
		release()
	}
	w.sess.EndStmt(rec, err)
	return rows, ins, err
}

// renameCalls points a driver query's UDF calls at their aggified versions.
func renameCalls(q *ast.Select, aggified map[string]*ast.CreateFunction) {
	ast.WalkSelectExprs(q, func(e ast.Expr) bool {
		if fc, ok := e.(*ast.FuncCall); ok {
			if _, ok := aggified[strings.ToLower(fc.Name)]; ok {
				fc.Name = strings.ToLower(fc.Name) + "_aggified"
			}
		}
		return true
	})
}

// check compares a result with the query's reference checksum (every mode
// and pass must agree) and, once per query and mode, samples driver keys
// against the interpreter's value of the original UDF.
func (w *tpchRun) check(q *tpch.WorkloadQuery, mode bench.Mode, rows []exec.Row) error {
	sum := checksum(rows)
	if ref, ok := w.sums[q.ID]; !ok {
		w.sums[q.ID] = sum
	} else if sum != ref {
		return fmt.Errorf("result checksum %x differs from the reference %x", sum, ref)
	}
	key := q.ID + "/" + mode.String()
	if w.checked[key] {
		return nil
	}
	w.checked[key] = true
	return w.oracle(q, rows)
}

func (w *tpchRun) oracle(q *tpch.WorkloadQuery, rows []exec.Row) error {
	o := oracles[q.ID]
	call := func(args ...sqltypes.Value) (sqltypes.Value, error) {
		v, err := interp.CallFunctionInterpreted(w.side, o.Func, args...)
		if err != nil {
			return v, fmt.Errorf("interpreted %s: %w", o.Func, err)
		}
		if w.cfg.WrongReference {
			v = perturb(v)
		}
		return v, nil
	}
	if o.KeyMax == nil {
		want, err := call(o.Args...)
		if err != nil {
			return err
		}
		if len(rows) != 1 || !sameValue(rows[0][0], want) {
			return fmt.Errorf("%s() = %v, interpreter says %v", o.Func, rows, want)
		}
		return nil
	}
	got := map[int64]sqltypes.Value{}
	for _, r := range rows {
		k, _ := r[0].AsInt()
		got[k] = r[1]
	}
	h := fnv.New64a()
	h.Write([]byte(q.ID))
	rng := rand.New(rand.NewSource(w.cfg.Seed ^ int64(h.Sum64()>>1)))
	n := o.KeyMax(tpch.SizesFor(w.cfg.Sizes.TPCHSF))
	for i := 0; i < w.cfg.Sizes.OracleKeys; i++ {
		k := int64(1 + rng.Intn(n))
		want, err := call(sqltypes.NewInt(k))
		if err != nil {
			return err
		}
		v, present := got[k]
		expect := true
		if o.Keep != nil {
			f, _ := want.AsFloat()
			expect = o.Keep(f)
		}
		switch {
		case present != expect:
			return fmt.Errorf("%s(%d): row present=%v, interpreter value %v says present=%v", o.Func, k, present, want, expect)
		case present && !sameValue(v, want):
			return fmt.Errorf("%s(%d) = %v, interpreter says %v", o.Func, k, v, want)
		}
	}
	return nil
}

// checksum is an order-insensitive hash of a result set.
func checksum(rows []exec.Row) uint64 {
	var sum uint64
	for _, r := range rows {
		h := uint64(14695981039346656037)
		for _, v := range r {
			s := v.String()
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * 1099511628211
			}
			h = (h ^ 0xff) * 1099511628211
		}
		sum += h
	}
	return sum
}

// operatorTimes splits an instrumented driver-query plan's time into exclusive
// time per operator kind. In Original and Aggify modes the driver query's
// Project and Filter evaluate the workload UDF (the cursor loop runs inside
// them), so their time is the interpreter's, not the executor's.
func (w *tpchRun) operatorTimes(ins *plan.Instrumentation, mode bench.Mode) {
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if st, ok := ins.Stats[n]; ok && st.Loops() > 0 {
			self := st.Time() - childTime(ins, n)
			kind := opKind(n.Op)
			if mode != bench.AggifyPlus && (kind == "project" || kind == "filter") {
				w.opTimes["interp.udf_op_ms_"+modeSuffix(mode)] += ms(self)
				if mode == bench.Original {
					w.opTimes["interp.udf_calls"] += float64(childRows(ins, n))
				}
			} else {
				w.opTimes["exec."+kind+"_ms"] += ms(self)
			}
			w.opTimes["exec.reopens"] += float64(st.Loops() - 1)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(ins.Root)
}

// childTime sums the inclusive time of n's nearest instrumented
// descendants.
func childTime(ins *plan.Instrumentation, n *plan.Node) time.Duration {
	var d time.Duration
	for _, c := range n.Children {
		if st, ok := ins.Stats[c]; ok {
			d += st.Time()
		} else {
			d += childTime(ins, c)
		}
	}
	return d
}

// childRows sums the rows n's nearest instrumented descendants produced,
// which is the number of rows n evaluated its expressions on (one for a
// FROM-less SELECT).
func childRows(ins *plan.Instrumentation, n *plan.Node) int64 {
	if len(n.Children) == 0 {
		return 1
	}
	var r int64
	for _, c := range n.Children {
		if st, ok := ins.Stats[c]; ok {
			r += st.Rows()
		} else {
			r += childRows(ins, c)
		}
	}
	return r
}

// opKind classifies an explain-tree operator name.
func opKind(op string) string {
	name := op
	if i := strings.IndexAny(op, "( "); i >= 0 {
		name = op[:i]
	}
	switch {
	case strings.HasSuffix(name, "Scan") || strings.HasSuffix(name, "Seek"):
		return "scan"
	case strings.HasSuffix(name, "Join"):
		return "join"
	case name == "Filter":
		return "filter"
	case strings.Contains(name, "Agg") || name == "Distinct":
		return "agg"
	case name == "Project":
		return "project"
	case name == "Sort" || name == "Top":
		return "sort"
	}
	return "other"
}

func modeSuffix(m bench.Mode) string {
	switch m {
	case bench.Aggify:
		return "aggify"
	case bench.AggifyPlus:
		return "aggify_plus"
	}
	return "original"
}

// traced is the per-layer run: untraced passes for counts and the
// overhead baseline, then traced passes for span times.
func (w *tpchRun) traced(budget time.Duration) error {
	got := map[string]float64{}
	base := &measurement{}
	w.storage, w.rows = map[string]storage.Snapshot{}, 0
	hits0, miss0 := w.sess.PlanCacheHits(), w.sess.PlanCacheMisses()
	batch0, row0, err := w.batchExecs()
	if err != nil {
		return err
	}
	base.Passes = passLoop(budget/2, 1, func(i int) { w.pass(i, base) })
	per := 1 / float64(base.Passes)
	hits, miss := float64(w.sess.PlanCacheHits()-hits0), float64(w.sess.PlanCacheMisses()-miss0)
	got["plan.cache_hits"] = hits * per
	got["plan.cache_misses"] = miss * per
	got["plan.cache_hit_ratio"] = ratio(hits, hits+miss)
	batch1, row1, err := w.batchExecs()
	if err != nil {
		return err
	}
	got["exec.batch_share"] = ratio(batch1-batch0, batch1-batch0+row1-row0)
	var reads int64
	for _, mode := range tpchModes {
		s, suf := w.storage[mode.String()], modeSuffix(mode)
		got["storage.logical_reads_"+suf] = float64(s.LogicalReads) * per
		got["storage.worktable_writes_"+suf] = float64(s.WorktableWrites) * per
		got["storage.worktable_reads_"+suf] = float64(s.WorktableReads) * per
		got["storage.worktable_bytes_"+suf] = float64(s.WorktableBytes) * per
		got["storage.index_seeks_"+suf] = float64(s.IndexSeeks) * per
		got["storage.rows_emitted_"+suf] = float64(s.RowsEmitted) * per
		reads += s.TotalReads()
	}
	got["exec.rows_examined_per_result"] = ratio(float64(reads), float64(w.rows))

	// Traced passes: the setup layers first, then the same passes with
	// spans and instrumented plans.
	w.spans = newSpans()
	w.tr = w.spans.tr
	w.setupSpans(got)
	tracedPass := &measurement{}
	tracedPass.Passes = passLoop(budget/2, 1, func(i int) { w.pass(i, tracedPass) })
	w.spans.fold()
	tper := 1 / float64(tracedPass.Passes)
	for k, v := range w.opTimes {
		got[k] = v * tper
	}
	all := w.spans.all
	got["parser.parse_us"] = all["parser.Parse"].meanUS()
	got["core.transform_ms"] = ms(all["core.TransformFunction"].Total)
	if lt := all["froid.InlineInSelect"]; lt != nil {
		got["froid.inline_us"] = lt.meanUS()
	}
	for _, mode := range tpchModes {
		lt, suf := w.spans.byMode[mode.String()], modeSuffix(mode)
		if p := lt["engine.PlanQuery"]; p != nil {
			got["plan.plan_ms_"+suf] = ms(p.Total) / float64(p.Calls)
		}
		if r := lt["plan.RunInstrumented"]; r != nil {
			got["exec.execute_ms_"+suf] = ms(r.Total) * tper
		}
	}
	got["trace.overhead_pct"] = overheadPct(base, tracedPass)
	if err := w.spans.finish(w.rep, got, spanPath(w.cfg)); err != nil {
		return err
	}
	layerReport(w.rep, got, map[string]string{
		"txn.":    "no writes: the TPC-H workloads only read",
		"wal.":    "no writes, and TPC-H runs embedded without a data directory",
		"wire.":   "embedded session: no client/server traffic",
		"client.": "embedded session: no client calls",
		"server.": "embedded session: no server",
	})
	w.spans.printSelfTimes(w.rep)
	return nil
}

// setupSpans times the benchmark's own calls into the parser and the Aggify
// transform on the workload's setup texts and UDFs.
func (w *tpchRun) setupSpans(got map[string]float64) {
	var loops int
	root := startProgram(w.tr, "bench.setup", "setup", "")
	ctx := root.Context()
	for _, q := range w.queries {
		sp := w.tr.StartSpan(ctx, "parser.Parse")
		_, err := parser.Parse(q.Setup)
		sp.End()
		if err != nil {
			w.rep.fail("parse %s setup: %v", q.ID, err)
		}
		for _, f := range q.Funcs {
			def, _ := w.env.Eng.Function(f)
			sp := w.tr.StartSpan(ctx, "core.TransformFunction")
			_, res, err := core.TransformFunction(def, core.Options{})
			sp.End()
			if err != nil {
				w.rep.fail("transform %s: %v", f, err)
				continue
			}
			loops += len(res.Loops)
		}
	}
	root.End()
	got["core.loops_aggified"] = float64(loops)
}

// batchExecs reads the batch and row execution counts of all statements
// from aggify_stat_statements.
func (w *tpchRun) batchExecs() (batch, row float64, err error) {
	v, err := w.sideQuery("select sum(batch_execs), sum(row_execs) from aggify_stat_statements")
	if err != nil || len(v) == 0 {
		return 0, 0, err
	}
	b, _ := v[0][0].AsFloat()
	r, _ := v[0][1].AsFloat()
	return b, r, nil
}

func (w *tpchRun) sideQuery(src string) ([]exec.Row, error) {
	stmts, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	_, rows, err := w.side.Query(stmts[0].(*ast.QueryStmt).Query, nil)
	return rows, err
}
