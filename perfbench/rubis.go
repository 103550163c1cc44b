package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"aggify/internal/bench"
	"aggify/internal/client"
	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"aggify/internal/trace"
	"aggify/internal/wal"
	"aggify/internal/wire"
	"aggify/internal/workloads/rubis"
)

// loadRubis generates the RUBiS schema and data of rubis.Load from the
// given seed, in one logged transaction, then builds the same indexes.
func loadRubis(eng *engine.Engine, scale float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	sz := rubis.SizesFor(scale)
	tx := eng.TxnMgr.Begin()
	defer tx.Rollback()
	mk := func(name string, cols ...storage.Column) (*storage.Table, error) {
		return eng.CreateTable(name, storage.NewSchema(cols...))
	}
	users, err := mk("users",
		storage.Col("u_id", sqltypes.Int), storage.Col("u_nickname", sqltypes.VarChar(20)),
		storage.Col("u_rating", sqltypes.Int), storage.Col("u_region", sqltypes.Int))
	if err != nil {
		return err
	}
	items, err := mk("items",
		storage.Col("i_id", sqltypes.Int), storage.Col("i_seller", sqltypes.Int),
		storage.Col("i_category", sqltypes.Int), storage.Col("i_name", sqltypes.VarChar(100)),
		storage.Col("i_initial_price", sqltypes.Float), storage.Col("i_quantity", sqltypes.Int),
		storage.Col("i_end_date", sqltypes.Date))
	if err != nil {
		return err
	}
	bids, err := mk("bids",
		storage.Col("b_id", sqltypes.Int), storage.Col("b_user_id", sqltypes.Int),
		storage.Col("b_item_id", sqltypes.Int), storage.Col("b_qty", sqltypes.Int),
		storage.Col("b_bid", sqltypes.Float), storage.Col("b_date", sqltypes.Date))
	if err != nil {
		return err
	}
	comments, err := mk("comments",
		storage.Col("c_id", sqltypes.Int), storage.Col("c_from", sqltypes.Int),
		storage.Col("c_to", sqltypes.Int), storage.Col("c_item_id", sqltypes.Int),
		storage.Col("c_rating", sqltypes.Int))
	if err != nil {
		return err
	}
	base := sqltypes.MustDate("2020-01-01").Int()
	insert := func(t *storage.Table, vals ...sqltypes.Value) {
		if err == nil {
			err = t.Insert(tx, vals)
		}
	}
	// As in rubis.Load, user 1 sells a tenth of the items, item 1 draws a
	// fifth of the bids, user 1 places a fifth of them and receives a fifth
	// of the comments.
	for i := 1; i <= sz.Users; i++ {
		insert(users, sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("user%d", i)),
			sqltypes.NewInt(int64(rng.Intn(20)-5)), sqltypes.NewInt(int64(1+rng.Intn(50))))
	}
	for i := 1; i <= sz.Items; i++ {
		seller := int64(1 + rng.Intn(sz.Users))
		if rng.Intn(10) == 0 {
			seller = 1
		}
		insert(items, sqltypes.NewInt(int64(i)), sqltypes.NewInt(seller), sqltypes.NewInt(int64(1+rng.Intn(20))),
			sqltypes.NewString(fmt.Sprintf("item %d", i)), sqltypes.NewFloat(float64(100+rng.Intn(10_000))/100),
			sqltypes.NewInt(int64(1+rng.Intn(10))), sqltypes.NewDate(base+int64(rng.Intn(365))))
	}
	for i := 1; i <= sz.Bids; i++ {
		bidder := int64(1 + rng.Intn(sz.Users))
		if rng.Intn(5) == 0 {
			bidder = 1
		}
		item := int64(1 + rng.Intn(sz.Items))
		if rng.Intn(5) == 0 {
			item = 1
		}
		insert(bids, sqltypes.NewInt(int64(i)), sqltypes.NewInt(bidder), sqltypes.NewInt(item),
			sqltypes.NewInt(int64(1+rng.Intn(5))), sqltypes.NewFloat(float64(100+rng.Intn(50_000))/100),
			sqltypes.NewDate(base+int64(rng.Intn(365))))
	}
	for i := 1; i <= sz.Comments; i++ {
		to := int64(1 + rng.Intn(sz.Users))
		if rng.Intn(5) == 0 {
			to = 1
		}
		insert(comments, sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(1+rng.Intn(sz.Users))),
			sqltypes.NewInt(to), sqltypes.NewInt(int64(1+rng.Intn(sz.Items))), sqltypes.NewInt(int64(rng.Intn(11)-5)))
	}
	if err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for _, ix := range [][2]string{
		{"bids", "b_item_id"}, {"bids", "b_user_id"},
		{"comments", "c_to"}, {"items", "i_category"}, {"items", "i_seller"},
		{"users", "u_id"}, {"items", "i_id"},
	} {
		if err := eng.CreateIndex(ix[0], ix[1]); err != nil {
			return err
		}
	}
	return nil
}

// buildRubis creates a durable engine in dir (WAL flush policy group, as
// aggifyd defaults to), loads RUBiS and registers every scenario's custom
// aggregate.
func buildRubis(cfg config, dir string) (*engine.Engine, error) {
	eng := engine.New()
	interp.Install(eng)
	eng.DefaultMaxDOP = 1
	if err := eng.OpenData(dir, wal.SyncGroup); err != nil {
		return nil, err
	}
	if err := loadRubis(eng, cfg.Sizes.RubisScale, cfg.Seed); err != nil {
		eng.CloseData()
		return nil, err
	}
	setup := client.Connect(eng, wire.Profile{})
	defer setup.Close()
	for _, sc := range rubis.Scenarios() {
		if err := setup.Exec(sc.AggregateSetup); err != nil {
			eng.CloseData()
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
	}
	return eng, nil
}

// step is one program pair: a scenario and its argument.
type step struct {
	Scenario int
	Arg      int64
}

type rubisRun struct {
	cfg     config
	eng     *engine.Engine
	conn    *client.Conn
	tr      *trace.Tracer // nil in untraced passes; also the client's tracer
	spans   *spans
	rep     *report
	scs     []*rubis.Scenario
	steps   []step
	writeRN *rand.Rand
	hotItem *rand.Zipf
	hotUser *rand.Zipf
	nextBid int64
	pair    int

	meter  map[string]wire.Meter // per mode, summed over untraced passes
	progs  map[string]int        // programs per mode in those passes
	writes int                   // commits in those passes
}

func runRubis(cfg config) (*report, error) {
	rep := &report{}
	m := &measurement{PlusIsAggify: true}
	dataRoot := filepath.Join(cfg.WorkDir, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dataRoot)
	builds := cfg.Sizes.SetupBuilds
	if cfg.Trace {
		builds = 1
	}
	var eng *engine.Engine
	for i := 0; i < builds; i++ {
		if eng != nil {
			if err := eng.CloseData(); err != nil {
				return nil, err
			}
			eng = nil
		}
		heapMB()
		dir := filepath.Join(dataRoot, fmt.Sprintf("build-%d", i))
		start := time.Now()
		e, err := buildRubis(cfg, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.Setup = append(m.Setup, time.Since(start))
		eng = e
	}
	defer eng.CloseData()

	addr, stop, err := bench.ServeLoopback(eng)
	if err != nil {
		return nil, err
	}
	defer stop()
	conn, err := client.Dial(addr, wire.Profile{})
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	sz := rubis.SizesFor(cfg.Sizes.RubisScale)
	w := &rubisRun{
		cfg: cfg, eng: eng, conn: conn, rep: rep,
		scs: rubis.Scenarios(), nextBid: int64(sz.Bids) + 1,
		meter: map[string]wire.Meter{}, progs: map[string]int{},
	}
	w.steps = genSteps(cfg.Seed, cfg.Sizes.RubisSteps, sz, w.scs)
	w.writeRN = rand.New(rand.NewSource(cfg.Seed ^ 0x5eed_0012))
	w.hotItem = rand.NewZipf(w.writeRN, zipfS, 1, uint64(sz.Items-1))
	w.hotUser = rand.NewZipf(w.writeRN, zipfS, 1, uint64(sz.Users-1))
	rep.linef("workload %s seed %d: RUBiS scale %g (%d users, %d items, %d bids), WAL flush group, one client over loopback TCP, MAXDOP 1, %d program pairs + %d INSERTs per pass",
		cfg.Workload, cfg.Seed, cfg.Sizes.RubisScale, sz.Users, sz.Items, sz.Bids, len(w.steps), len(w.steps))

	// One unmeasured pass compiles the routines and fills the plan cache;
	// it is checked like any other.
	w.pass(-1, nil)
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Trace {
		shape := func(when string) {
			r, sl, v, g, err := w.bidsShape()
			if err != nil {
				rep.fail("aggify_stat_tables: %v", err)
			}
			rep.linef("bids %s: %.0f rows, %.0f slots, %.0f versions, %.0f garbage", when, r, sl, v, g)
		}
		shape("after the warm-up pass")
		measure(budget, m, func(i int) { w.pass(i, m) })
		shape("after the measured passes")
		endToEnd(rep, m)
		return rep, nil
	}
	return rep, w.traced(budget)
}

// genSteps draws the pass's program sequence. Each scenario gets an equal
// share of the steps, and its arguments are Zipf-distributed over its
// domain (key 1, the paper's hot item, user or seller, recurs most). The
// arguments are stratified — one per equal slice of the distribution, at a
// seeded point inside the slice — so every seed's pass does about the same
// work, while the seed still picks the exact arguments and their order.
func genSteps(seed int64, n int, sz rubis.Sizes, scs []*rubis.Scenario) []step {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_0011))
	domains := map[string]int{
		"ViewBidHistory": sz.Items, "ViewUserInfo": sz.Users, "SearchItemsByCategory": 20,
		"AboutMe-BuyerSpend": sz.Users, "AboutMe-SellerValue": sz.Users,
	}
	per := (n + len(scs) - 1) / len(scs)
	var steps []step
	for i, sc := range scs {
		cdf := zipfCDF(domains[sc.Name], zipfS)
		for j := 0; j < per; j++ {
			u := (float64(j) + rng.Float64()) / float64(per)
			k := sort.SearchFloat64s(cdf, u)
			steps = append(steps, step{Scenario: i, Arg: int64(k) + 1})
		}
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return steps
}

// zipfS is the skew of program arguments and write keys.
const zipfS = 1.2

// zipfCDF returns the cumulative distribution of keys 1..n with weight
// k^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// pass replays the step sequence: each step runs the Original and then the
// Aggify program on the same argument and compares their values, then
// sends one literal INSERT INTO bids on a hot item and user. The pass ends
// by deleting the bids it inserted, so every pass starts from the same
// rows.
func (w *rubisRun) pass(i int, m *measurement) {
	alloc0 := allocated()
	firstBid := w.nextBid
	for _, st := range w.steps {
		sc := w.scs[st.Scenario]
		w.rep.Attempted += 2
		ov, od, oerr := w.program(sc, original, st.Arg)
		av, ad, aerr := w.program(sc, aggify, st.Arg)
		if w.cfg.WrongReference {
			ov = perturb(ov)
		}
		if oerr != nil {
			w.rep.fail("%s(%d) original: %v", sc.Name, st.Arg, oerr)
		}
		if aerr != nil {
			w.rep.fail("%s(%d) aggify: %v", sc.Name, st.Arg, aerr)
		}
		switch {
		case oerr != nil || aerr != nil:
		case !sameValue(av, ov):
			w.rep.fail("%s(%d): client loop value %v, server aggregate %v", sc.Name, st.Arg, ov, av)
		case m != nil:
			m.Samples = append(m.Samples,
				sample{Program: sc.Name, Mode: original, Pass: i, Pair: w.pair, Share: 1, Dur: od},
				sample{Program: sc.Name, Mode: aggify, Pass: i, Pair: w.pair, Share: 1, Dur: ad})
		}
		w.pair++
		w.rep.Attempted++
		d, err := w.exec("bench.write", fmt.Sprintf("insert into bids values (%d, %d, %d, %d, %d.%02d, date '2020-06-01')",
			w.nextBid, w.hotUser.Uint64()+1, w.hotItem.Uint64()+1, 1+w.writeRN.Intn(5), 1+w.writeRN.Intn(500), w.writeRN.Intn(100)))
		w.nextBid++
		if err != nil {
			w.rep.fail("insert: %v", err)
		} else if m != nil {
			m.Writes = append(m.Writes, d)
			w.writes++
		}
	}
	w.rep.Attempted++
	if _, err := w.exec("bench.cleanup", fmt.Sprintf("delete from bids where b_id >= %d", firstBid)); err != nil {
		w.rep.fail("delete: %v", err)
	} else if m != nil {
		w.writes++
	}
	w.nextBid = firstBid
	if m != nil {
		m.PassAlloc = append(m.PassAlloc, allocated()-alloc0)
	}
}

// program runs one scenario in one mode over the connection.
func (w *rubisRun) program(sc *rubis.Scenario, mode string, arg int64) (sqltypes.Value, time.Duration, error) {
	root := startProgram(w.tr, "bench.program", sc.Name, mode)
	before := w.conn.Meter()
	start := time.Now()
	var v sqltypes.Value
	var err error
	if mode == original {
		v, _, err = sc.Original(w.conn, arg)
	} else {
		v, err = sc.Aggified(w.conn, arg)
	}
	d := time.Since(start)
	root.End()
	w.spans.afterProgram()
	// The meter is cumulative: add this program's traffic as after - before.
	mt := w.meter[mode]
	mt.Add(w.conn.Meter())
	mt.Add(wire.Meter{BytesToServer: -before.BytesToServer, BytesToClient: -before.BytesToClient,
		RoundTrips: -before.RoundTrips, RowsTransferred: -before.RowsTransferred})
	w.meter[mode] = mt
	w.progs[mode]++
	return v, d, err
}

// exec sends one script in one round trip.
func (w *rubisRun) exec(name, src string) (time.Duration, error) {
	root := startProgram(w.tr, name, name, "")
	start := time.Now()
	err := w.conn.Exec(src)
	d := time.Since(start)
	root.End()
	w.spans.afterProgram()
	return d, err
}

// traced is the per-layer run: untraced passes for counts and the
// overhead baseline, then traced passes for span times.
func (w *rubisRun) traced(budget time.Duration) error {
	got := map[string]float64{}
	base := &measurement{}
	w.meter, w.progs, w.writes = map[string]wire.Meter{}, map[string]int{}, 0
	stat0, err := w.stmtStats()
	if err != nil {
		return err
	}
	srv0, err := w.conn.ServerMetrics()
	if err != nil {
		return err
	}
	wal0, _, _ := w.eng.WALStats()
	n := passLoop(budget/2, 1, func(i int) { w.pass(i, base) })
	base.Passes = n
	wal1, _, _ := w.eng.WALStats()
	srv1, err := w.conn.ServerMetrics()
	if err != nil {
		return err
	}
	stat1, err := w.stmtStats()
	if err != nil {
		return err
	}
	per := 1 / float64(n)
	for _, mode := range []string{original, aggify} {
		mt, np := w.meter[mode], float64(w.progs[mode])
		suf := strings.ToLower(mode)
		got["wire.round_trips_"+suf] = float64(mt.RoundTrips) / np
		got["wire.bytes_to_client_"+suf] = float64(mt.BytesToClient) / np
		got["wire.bytes_to_server_"+suf] = float64(mt.BytesToServer) / np
		got["wire.rows_transferred_"+suf] = float64(mt.RowsTransferred) / np
		got["storage.logical_reads_"+suf] = (stat1.reads[mode] - stat0.reads[mode]) * per
		got["storage.rows_emitted_"+suf] = (stat1.rows[mode] - stat0.rows[mode]) * per
	}
	programs := float64(w.progs[original] + w.progs[aggify])
	got["server.requests"] = float64(srv1.Requests-srv0.Requests-1) / programs
	got["server.fetches"] = float64(srv1.Fetches-srv0.Fetches) / programs
	got["server.p50_us"] = float64(srv1.P50Micros)
	got["server.p99_us"] = float64(srv1.P99Micros)
	hits, miss := stat1.hits-stat0.hits, stat1.misses-stat0.misses
	got["plan.cache_hits"] = hits * per
	got["plan.cache_misses"] = miss * per
	got["plan.cache_hit_ratio"] = ratio(hits, hits+miss)
	batch, row := stat1.batch-stat0.batch, stat1.row-stat0.row
	got["exec.batch_share"] = ratio(batch, batch+row)
	commits := float64(w.writes)
	got["wal.records"] = float64(wal1.Records-wal0.Records) * per
	got["wal.fsyncs"] = float64(wal1.Fsyncs-wal0.Fsyncs) * per
	got["wal.commits_per_fsync"] = ratio(commits, float64(wal1.Fsyncs-wal0.Fsyncs))
	got["wal.bytes_per_commit"] = ratio(float64(wal1.AppendedBytes-wal0.AppendedBytes), commits)
	writes := make([]float64, len(base.Writes))
	for i, d := range base.Writes {
		writes[i] = ms(d)
	}
	got["wal.commit_p99_ms"] = percentile(writes, 99)
	if err := w.tableStats(got); err != nil {
		return err
	}

	// Traced passes: the benchmark's own parser calls on the setup texts,
	// then passes with the client library on the same tracer.
	w.spans = newSpans()
	w.tr = w.spans.tr
	w.conn.SetTracer(w.tr)
	root := startProgram(w.tr, "bench.setup", "setup", "")
	for _, sc := range w.scs {
		sp := w.tr.StartSpan(root.Context(), "parser.Parse")
		_, err := parser.Parse(sc.AggregateSetup)
		sp.End()
		if err != nil {
			w.rep.fail("parse %s setup: %v", sc.Name, err)
		}
	}
	root.End()
	tracedPass := &measurement{}
	tracedPass.Passes = passLoop(budget/2, 1, func(i int) { w.pass(i, tracedPass) })
	w.conn.SetTracer(nil)
	w.spans.fold()
	all := w.spans.all
	mean := func(name string) float64 {
		if lt := all[name]; lt != nil {
			return lt.meanUS()
		}
		return 0
	}
	got["parser.parse_us"] = mean("parser.Parse")
	got["client.prepare_us"] = mean("client.prepare")
	got["client.query_us"] = mean("client.query")
	got["client.next_us"] = mean("client.fetch")
	got["trace.overhead_pct"] = overheadPct(base, tracedPass)
	if err := w.spans.finish(w.rep, got, spanPath(w.cfg)); err != nil {
		return err
	}
	layerReport(w.rep, got, map[string]string{
		"core.":        "client programs are aggified by hand (rubis.Scenario); no Aggify transform runs",
		"froid.":       "no UDF to inline in a client program",
		"plan.plan_ms": "planning happens inside the server; only its plan-cache counters are visible from outside",
		"exec.":        "operator trees run inside the server; only aggify_stat_statements batch counts are visible from outside",
		"interp.":      "no UDF: the loop runs in the client (Original) or the aggregate (Aggify)",
		"storage.":     "over a socket only aggify_stat_statements logical reads and rows are visible per statement",
	})
	w.spans.printSelfTimes(w.rep)
	return nil
}

// stmtCounters are sums over aggify_stat_statements, split by the mode
// whose statements they belong to.
type stmtCounters struct {
	reads, rows              map[string]float64
	hits, misses, batch, row float64
}

// stmtStats reads aggify_stat_statements over the connection. Aggified
// programs are the statements calling a scenario aggregate; the other
// SELECTs on workload tables are the Original programs'.
func (w *rubisRun) stmtStats() (*stmtCounters, error) {
	res, err := w.conn.ExecResults("select query, logical_reads, rows, plan_cache_hits, plan_cache_misses, batch_execs, row_execs from aggify_stat_statements")
	if err != nil {
		return nil, err
	}
	c := &stmtCounters{reads: map[string]float64{}, rows: map[string]float64{}}
	for _, set := range res.Sets {
		for _, r := range set.Rows {
			q := strings.ToLower(r[0].Display())
			f := func(i int) float64 { v, _ := r[i].AsFloat(); return v }
			c.hits += f(3)
			c.misses += f(4)
			c.batch += f(5)
			c.row += f(6)
			if strings.Contains(q, "aggify_stat") || !strings.HasPrefix(q, "select") {
				continue
			}
			mode := original
			if strings.Contains(q, "agg(") {
				mode = aggify
			}
			c.reads[mode] += f(1)
			c.rows[mode] += f(2)
		}
	}
	return c, nil
}

// bidsShape reads bids' live rows, slots, versions and garbage versions
// from aggify_stat_tables.
func (w *rubisRun) bidsShape() (rows, slots, versions, garbage float64, err error) {
	res, err := w.conn.ExecResults("select rows, slots, versions, garbage from aggify_stat_tables where name = 'bids'")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if len(res.Sets) != 1 || len(res.Sets[0].Rows) != 1 {
		return 0, 0, 0, 0, fmt.Errorf("aggify_stat_tables: no row for bids")
	}
	r := res.Sets[0].Rows[0]
	f := func(i int) float64 { v, _ := r[i].AsFloat(); return v }
	return f(0), f(1), f(2), f(3), nil
}

// tableStats reads bids' version-chain shape.
func (w *rubisRun) tableStats(got map[string]float64) error {
	rows, _, versions, garbage, err := w.bidsShape()
	if err != nil {
		return err
	}
	got["txn.versions_per_row"] = ratio(versions, rows)
	got["txn.garbage"] = garbage
	return nil
}
