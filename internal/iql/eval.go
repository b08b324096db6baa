package iql

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/oidset"
)

// Options tunes the engine.
type Options struct {
	// Expansion selects the path-evaluation strategy (default forward,
	// as in the paper's prototype).
	Expansion Expansion
	// Budget bounds the number of views touched during one expansion;
	// <= 0 applies 1 << 20. The budget may be consumed in full: an
	// expansion touching exactly Budget views succeeds, one more fails.
	Budget int
	// Now supplies the clock for date functions; nil means time.Now.
	Now func() time.Time
	// Rank orders result rows by relevance: the summed occurrence
	// counts of the query's (non-negated) phrases in each view's
	// content. Ties order by OID. Without phrases, ranking leaves the
	// OID order.
	Rank bool
	// Parallelism is the worker count for query execution: frontier
	// expansion, backward ancestor verification, union and join
	// fan-out, and residual filtering all shard across this many
	// workers when a stage carries enough estimated work (see
	// PlannerProcs for the CPU clamp). <= 0 applies
	// runtime.GOMAXPROCS(0); 1 preserves fully serial execution.
	// Results are identical at any setting: rows are sorted before
	// return, so only internal evaluation order varies.
	Parallelism int
	// Deprecated: ignored; the engine always plans by cost (see
	// docs/IQL.md "Cost-based planning").
	Planner PlannerMode
	// PlannerProcs overrides the schedulable-CPU count the planner
	// clamps Parallelism with (<= 0 = min(GOMAXPROCS, NumCPU)). Tests
	// use it to exercise parallel plans on small machines.
	PlannerProcs int
	// Metrics receives the engine's counters and latency histograms
	// (iql_* instruments, see docs/OBSERVABILITY.md). nil leaves the
	// engine uninstrumented; a disabled registry costs one atomic load
	// per instrument call.
	Metrics *obs.Registry
	// QueryLog receives one record per completed string-level query
	// (Query and QueryTraced; Exec/ExecTraced bypass it — callers
	// evaluating pre-parsed ASTs own their logging). nil disables
	// logging. Queries at or over the log's slow threshold additionally
	// retain a full trace render; see obs.QueryLog.
	QueryLog *obs.QueryLog
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 1 << 20
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Engine evaluates iQL queries against a Store. An Engine's options are
// immutable after construction and it is safe for concurrent Query/Exec
// calls; internally it memoizes parses and planner estimates across
// executions (see planCache).
type Engine struct {
	store Store
	opts  Options
	met   engineMetrics
	// versioned is the store's dataspace-version surface (nil when the
	// store has none); it invalidates the cached planner estimates.
	versioned interface{ Version() uint64 }
	plans     planCache
}

// engineMetrics bundles the engine's instruments. With a nil
// Options.Metrics every field is a nil (no-op) instrument, so the hot
// paths need no registry checks.
type engineMetrics struct {
	queries       *obs.Counter
	errors        *obs.Counter
	queryNs       *obs.Histogram
	parseNs       *obs.Histogram
	rows          *obs.Counter
	intermediates *obs.Counter
	indexAccesses *obs.Counter
	// idm_planner_* instruments surface the planner's physical
	// decisions (see docs/IQL.md "Cost-based planning").
	plannerPlans    *obs.Counter
	plannerParallel *obs.Counter
	plannerSerial   *obs.Counter
	plannerPush     *obs.Counter
	plannerSkips    *obs.Counter
	plannerEstErr   *obs.Histogram
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	return engineMetrics{
		queries:         reg.Counter("iql_queries_total"),
		errors:          reg.Counter("iql_query_errors_total"),
		queryNs:         reg.Histogram("iql_query_ns", nil),
		parseNs:         reg.Histogram("iql_parse_ns", nil),
		rows:            reg.Counter("iql_rows_total"),
		intermediates:   reg.Counter("iql_intermediates_total"),
		indexAccesses:   reg.Counter("iql_index_accesses_total"),
		plannerPlans:    reg.Counter("idm_planner_plans_total"),
		plannerParallel: reg.Counter("idm_planner_parallel_stages_total"),
		plannerSerial:   reg.Counter("idm_planner_serial_stages_total"),
		plannerPush:     reg.Counter("idm_planner_pushdowns_total"),
		plannerSkips:    reg.Counter("idm_planner_residual_skips_total"),
		plannerEstErr:   reg.Histogram("idm_planner_estimate_error_pct", nil),
	}
}

// NewEngine returns an engine over the store.
func NewEngine(store Store, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{store: store, opts: opts, met: newEngineMetrics(opts.Metrics)}
	e.versioned, _ = store.(interface{ Version() uint64 })
	return e
}

// Result is the outcome of a query. Rows have one column for path,
// predicate and union queries and two columns (left, right) for joins.
type Result struct {
	Columns []string
	Rows    [][]catalog.OID
	// Scores aligns with Rows when the engine ranked the result
	// (Options.Rank); nil otherwise.
	Scores []float64
	Plan   *PlanInfo
	// Stats is the per-query resource accounting: what the query cost,
	// not just how long it took. See QueryStats.
	Stats QueryStats
}

// Count returns the number of result rows (the "# of Results" column of
// Table 4 in the paper).
func (r *Result) Count() int { return len(r.Rows) }

// OIDs returns the distinct OIDs of the first result column in ascending
// order.
func (r *Result) OIDs() []catalog.OID {
	seen := oidset.New(0)
	for _, row := range r.Rows {
		if len(row) > 0 {
			seen.Add(row[0])
		}
	}
	return seen.Slice()
}

// Query parses and evaluates an iQL query string.
func (e *Engine) Query(src string) (*Result, error) {
	t0 := time.Now()
	res, err := e.query(src, nil)
	elapsed := time.Since(t0)
	if res != nil {
		res.Stats.ElapsedNs = int64(elapsed)
	}
	e.record(src, res, err, elapsed, nil)
	return res, err
}

// QueryTraced parses and evaluates src with span-based tracing: the
// returned trace holds the parse → plan → eval span tree, including
// per-worker spans for the stages the engine sharded. Tracing records
// wall-clock per stage, so traced runs cost slightly more than Query.
func (e *Engine) QueryTraced(src string) (*Result, *obs.Trace, error) {
	t0 := time.Now()
	trace := obs.NewTrace("query " + src)
	res, err := e.query(src, trace)
	trace.Finish()
	elapsed := time.Since(t0)
	if res != nil {
		res.Stats.ElapsedNs = int64(elapsed)
	}
	e.record(src, res, err, elapsed, trace)
	return res, trace, err
}

func (e *Engine) query(src string, trace *obs.Trace) (*Result, error) {
	t0 := time.Now()
	ps := trace.Root().Start("parse")
	q, ok := e.plans.parsedFor(src)
	if !ok {
		var usedClock bool
		var err error
		q, usedClock, err = parseTracked(src, ParseOptions{Now: e.opts.Now})
		if err != nil {
			e.met.parseNs.ObserveSince(t0)
			ps.Set("error", err.Error())
			ps.Finish()
			e.met.queries.Inc()
			e.met.errors.Inc()
			return nil, err
		}
		// A parse that consulted the clock (now()/yesterday()/...)
		// may yield a different AST next call; cache only the rest.
		if !usedClock {
			e.plans.storeParsed(src, q)
		}
	}
	e.met.parseNs.ObserveSince(t0)
	if trace != nil {
		ps.Set("normalized", q.String())
	}
	ps.Finish()
	return e.ExecTraced(q, trace)
}

// Exec evaluates a parsed query.
func (e *Engine) Exec(q Query) (*Result, error) {
	return e.ExecTraced(q, nil)
}

// ExecTraced evaluates a parsed query, recording plan and eval spans
// into trace (nil trace = no tracing, identical to Exec).
func (e *Engine) ExecTraced(q Query, trace *obs.Trace) (*Result, error) {
	t0 := time.Now()
	e.met.queries.Inc()
	root := trace.Root()

	plan := &PlanInfo{}
	ctx := newEvalCtx(e.store, plan, e.opts.effectiveParallelism())
	// Cross-execution estimate reuse needs a dataspace version to
	// invalidate on; without one every execution re-derives estimates.
	if e.versioned != nil {
		ctx.shared = &e.plans
		ctx.sharedVersion = e.versioned.Version()
	}

	// The planner's static choices; per-query decisions (expansion
	// anchoring, join build side) annotate eval spans.
	pl := root.Start("plan")
	pl.Set("strategy", e.opts.Expansion.String())
	pl.SetInt("parallelism", int64(e.opts.Parallelism))
	pl.SetInt("budget", int64(e.opts.Budget))
	e.met.plannerPlans.Inc()
	est := ctx.estimateQuery(q)
	plan.EstimatedRows = int64(est)
	// "planner=adaptive" names the cost-based planner as it did when a
	// rule-based one stood beside it; EXPLAIN renders keep it stable.
	pl.Set("planner", "adaptive")
	pl.SetInt("estimated rows", int64(est))
	pl.SetInt("effective parallelism", int64(ctx.effPar))
	b := make([]byte, 0, 64)
	b = append(b, "planner: cost-based, estimated rows ≤ "...)
	b = strconv.AppendInt(b, int64(est), 10)
	b = append(b, ", effective parallelism "...)
	b = strconv.AppendInt(b, int64(ctx.effPar), 10)
	plan.note(string(b))
	pl.Finish()

	// Stores backed by a Resource View Manager report degraded sources;
	// their replicated views are served stale instead of failing the
	// query, and the plan carries the flag (graceful degradation).
	if hr, ok := e.store.(interface{ DegradedSources() []string }); ok {
		if stale := hr.DegradedSources(); len(stale) > 0 {
			plan.StaleSources = stale
			plan.notef("degraded sources, serving stale replicas: %s", strings.Join(stale, ", "))
			sp := root.Start("stale")
			sp.Set("sources", strings.Join(stale, ","))
			sp.Finish()
		}
	}
	ev := root.Start("eval")
	rows, cols, err := e.exec(ctx, q, ev)
	ev.Finish()
	if err != nil {
		e.met.errors.Inc()
		return nil, err
	}
	res := &Result{Columns: cols, Rows: rows, Plan: plan}
	// The top-level strategy of a path query is set by evalPath (the
	// chosen expansion direction); other operators name themselves.
	switch q.(type) {
	case *PredQuery:
		plan.setStrategy("predicate")
	case *UnionQuery:
		plan.setStrategy("union")
	case *JoinQuery:
		plan.setStrategy("join")
	}
	if e.opts.Rank {
		rs := root.Start("sort")
		rs.Set("order", "relevance (tf)")
		e.rank(q, res)
		rs.Finish()
	}
	// Per-query resource accounting. All workers have joined, so the
	// plan's atomic counters read exact here.
	res.Stats = QueryStats{
		ElapsedNs:       int64(time.Since(t0)),
		Rows:            int64(len(res.Rows)),
		RowsScanned:     plan.RowsScanned,
		PostingsRead:    plan.PostingsRead,
		ResidualFilters: plan.ResidualFilters,
		ViewsExpanded:   plan.Intermediates,
		PeakFrontier:    plan.PeakFrontier,
		IndexAccesses:   plan.IndexAccesses,
		EstimatedRows:   plan.EstimatedRows,
		ParallelStages:  plan.ParallelStages,
		SerialStages:    plan.SerialStages,
		Strategy:        plan.Strategy,
	}
	if trace != nil {
		st := root.Start("stats")
		st.SetInt("rows", res.Stats.Rows)
		st.SetInt("rows scanned", res.Stats.RowsScanned)
		st.SetInt("postings read", res.Stats.PostingsRead)
		st.SetInt("residual filters", res.Stats.ResidualFilters)
		st.SetInt("views expanded", res.Stats.ViewsExpanded)
		st.SetInt("peak frontier", res.Stats.PeakFrontier)
		st.SetInt("index accesses", res.Stats.IndexAccesses)
		st.Finish()
	}
	e.met.queryNs.ObserveSince(t0)
	e.met.rows.Add(int64(len(res.Rows)))
	e.met.intermediates.Add(plan.Intermediates)
	e.met.indexAccesses.Add(plan.IndexAccesses)
	e.met.plannerParallel.Add(plan.ParallelStages)
	e.met.plannerSerial.Add(plan.SerialStages)
	e.met.plannerPush.Add(plan.Pushdowns)
	e.met.plannerSkips.Add(plan.ResidualSkips)
	// Estimation-accuracy signal: symmetric error ratio between the
	// pre-execution bound and the actual row count, in percent (100 =
	// exact; +1 smoothing keeps empty results finite).
	lo, hi := plan.EstimatedRows, int64(len(res.Rows))
	if lo > hi {
		lo, hi = hi, lo
	}
	e.met.plannerEstErr.Observe(100 * (hi + 1) / (lo + 1))
	return res, nil
}

// rank orders result rows by the summed content-occurrence counts of
// the query's non-negated phrases (a simple tf relevance score).
func (e *Engine) rank(q Query, res *Result) {
	phrases := collectPhrases(q)
	if len(phrases) == 0 || len(res.Rows) == 0 {
		res.Scores = make([]float64, len(res.Rows))
		return
	}
	freqs := make([]map[catalog.OID]int, len(phrases))
	for i, p := range phrases {
		freqs[i] = e.store.ContentPhraseFreqs(p)
	}
	type scored struct {
		row   []catalog.OID
		score float64
	}
	rows := make([]scored, len(res.Rows))
	for i, row := range res.Rows {
		s := 0.0
		for _, col := range row {
			for _, f := range freqs {
				s += float64(f[col])
			}
		}
		rows[i] = scored{row: row, score: s}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].score > rows[j].score })
	res.Scores = make([]float64, len(rows))
	for i, r := range rows {
		res.Rows[i] = r.row
		res.Scores[i] = r.score
	}
}

// collectPhrases gathers the non-negated phrases of a query's
// predicates in syntax order.
func collectPhrases(q Query) []string {
	var out []string
	var fromExpr func(e Expr, negated bool)
	fromExpr = func(e Expr, negated bool) {
		switch x := e.(type) {
		case *AndExpr:
			fromExpr(x.L, negated)
			fromExpr(x.R, negated)
		case *OrExpr:
			fromExpr(x.L, negated)
			fromExpr(x.R, negated)
		case *NotExpr:
			fromExpr(x.E, !negated)
		case *PhraseExpr:
			if !negated {
				out = append(out, x.Phrase)
			}
		}
	}
	var fromQuery func(Query)
	fromQuery = func(q Query) {
		switch x := q.(type) {
		case *PredQuery:
			fromExpr(x.Pred, false)
		case *PathQuery:
			for _, s := range x.Steps {
				if s.Pred != nil {
					fromExpr(s.Pred, false)
				}
			}
		case *UnionQuery:
			for _, a := range x.Args {
				fromQuery(a)
			}
		case *JoinQuery:
			fromQuery(x.Left)
			fromQuery(x.Right)
		}
	}
	fromQuery(q)
	return out
}

// exec evaluates one query node; sp is the parent span node-level spans
// attach to (nil when untraced).
func (e *Engine) exec(ctx *evalCtx, q Query, sp *obs.Span) ([][]catalog.OID, []string, error) {
	switch x := q.(type) {
	case *PredQuery:
		ctx.plan.notef("predicate over all views: %s", x.Pred)
		ps := startSpan(sp, "predicate %s", x.Pred)
		oids := ctx.resolveStep(Step{Axis: Descendant, Pred: x.Pred}, ps)
		ps.SetInt("matches", int64(len(oids)))
		ps.Finish()
		return singleColumn(oids), []string{"view"}, nil
	case *PathQuery:
		ps := startSpan(sp, "path %s", x)
		oids, err := e.evalPath(ctx, x, ps)
		ps.Finish()
		if err != nil {
			return nil, nil, err
		}
		ps.SetInt("matches", int64(len(oids)))
		return singleColumn(oids), []string{"view"}, nil
	case *UnionQuery:
		return e.evalUnion(ctx, x, sp)
	case *JoinQuery:
		return e.evalJoin(ctx, x, sp)
	case *DeleteQuery:
		return nil, nil, fmt.Errorf("iql: engine is read-only; execute delete statements through the PDSMS")
	default:
		return nil, nil, fmt.Errorf("iql: unknown query node %T", q)
	}
}

// startSpan starts a child span with a formatted name, paying the
// formatting cost only when tracing is live.
func startSpan(parent *obs.Span, format string, args ...any) *obs.Span {
	if parent == nil {
		return nil
	}
	return parent.Start(fmt.Sprintf(format, args...))
}

func singleColumn(oids []catalog.OID) [][]catalog.OID {
	rows := make([][]catalog.OID, len(oids))
	for i, o := range oids {
		rows[i] = []catalog.OID{o}
	}
	return rows
}

// evalUnion evaluates the duplicate-free union, running the branch
// queries concurrently when the planner finds them heavy enough (each
// branch is an independent subquery sharing this query's memoized index
// lookups).
func (e *Engine) evalUnion(ctx *evalCtx, q *UnionQuery, sp *obs.Span) ([][]catalog.OID, []string, error) {
	ctx.plan.notef("union of %d queries", len(q.Args))
	us := startSpan(sp, "union")
	us.SetInt("branches", int64(len(q.Args)))
	branches := make([][][]catalog.OID, len(q.Args))
	errs := make([]error, len(q.Args))
	spans := make([]*obs.Span, len(q.Args))
	for i := range q.Args {
		spans[i] = startSpan(us, "branch %d", i+1)
	}
	run := func(i int) {
		branches[i], _, errs[i] = e.exec(ctx, q.Args[i], spans[i])
		spans[i].Finish()
	}
	// Serial evaluation order: the branch with the smallest estimated
	// result runs first, so cheap branches warm the shared index memos
	// before expensive ones reuse them.
	order := make([]int, len(q.Args))
	for i := range order {
		order[i] = i
	}
	if len(q.Args) > 1 {
		ests := make([]int, len(q.Args))
		for i, a := range q.Args {
			ests[i] = ctx.estimateQuery(a)
		}
		sort.SliceStable(order, func(i, j int) bool { return ests[order[i]] < ests[order[j]] })
		b := make([]byte, 0, 96)
		b = append(b, "planner: union evaluation order ["...)
		for i, br := range order {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(br+1), 10)
		}
		b = append(b, "] (estimated rows ["...)
		for i, est := range ests {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(est), 10)
		}
		b = append(b, "])"...)
		ctx.plan.note(string(b))
	}
	if len(q.Args) > 1 && ctx.concurrentBranches(q.Args...) {
		var wg sync.WaitGroup
		for i := range q.Args {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				run(i)
			}(i)
		}
		wg.Wait()
	} else {
		for _, i := range order {
			run(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			us.Finish()
			return nil, nil, err
		}
	}
	seen := oidset.New(0)
	for _, rows := range branches {
		for _, row := range rows {
			if len(row) == 1 {
				seen.Add(row[0])
			}
		}
	}
	us.SetInt("matches", int64(seen.Len()))
	us.Finish()
	return singleColumn(seen.Slice()), []string{"view"}, nil
}

// evalPath evaluates a path expression with the configured expansion
// strategy. Under automatic expansion the first anchor is resolved once
// and threaded into forward expansion when the planner picks it, so no
// step is resolved twice.
func (e *Engine) evalPath(ctx *evalCtx, q *PathQuery, sp *obs.Span) ([]catalog.OID, error) {
	if len(q.Steps) == 0 {
		return nil, fmt.Errorf("iql: empty path")
	}
	strategy := e.opts.Expansion
	var first []catalog.OID
	haveFirst := false
	if strategy == AutoExpansion {
		// Anchor on the cheaper end. The first anchor is resolved once
		// and threaded into forward expansion if chosen; the last
		// anchor's cardinality comes from statistics, and the planner
		// compares estimated expansion costs — forward pays for every
		// view reachable from the first anchor, backward pays one
		// ancestor verification per last-anchor candidate — so the
		// unchosen direction's anchor is never materialized.
		cs := startSpan(sp, "strategy choice")
		first = ctx.resolveStep(q.Steps[0], cs)
		haveFirst = true
		if len(q.Steps) == 1 {
			ctx.plan.notef("single-step path: %d matches", len(first))
			ctx.plan.setStrategy("single step")
			cs.SetInt("first", int64(len(first)))
			cs.Set("chosen", "single step")
			cs.Finish()
			return first, nil
		}
		choice := ctx.choosePathStrategy(q, first)
		strategy = choice.strategy
		b := make([]byte, 0, 160)
		b = append(b, "planner: auto expansion: first="...)
		b = strconv.AppendInt(b, int64(len(first)), 10)
		b = append(b, " est-last≈"...)
		b = strconv.AppendInt(b, int64(choice.estLast), 10)
		b = append(b, " reach≈"...)
		b = strconv.AppendInt(b, int64(choice.reach), 10)
		b = append(b, " forward-cost="...)
		b = strconv.AppendInt(b, int64(choice.fwdCost), 10)
		b = append(b, " backward-cost="...)
		b = strconv.AppendInt(b, int64(choice.bwdCost), 10)
		b = append(b, " → "...)
		b = append(b, strategy.String()...)
		b = append(b, " ("...)
		b = append(b, choice.reason...)
		b = append(b, ')')
		ctx.plan.note(string(b))
		cs.SetInt("estimated last", int64(choice.estLast))
		cs.SetInt("estimated reach", int64(choice.reach))
		cs.Set("reason", choice.reason)
		cs.SetInt("first", int64(len(first)))
		cs.Set("chosen", strategy.String())
		cs.Finish()
	}
	ctx.plan.setStrategy(strategy.String())
	if strategy == BackwardExpansion {
		return e.evalPathBackward(ctx, q, sp)
	}
	return e.evalPathForward(ctx, q, first, haveFirst, sp)
}

// evalPathForward implements the paper's strategy: resolve the first
// step via indexes, then expand forward through the group replica,
// filtering at each step. Q8's large intermediate result sets arise
// here, exactly as §7.2 describes; each frontier is sharded across the
// engine's workers.
func (e *Engine) evalPathForward(ctx *evalCtx, q *PathQuery, first []catalog.OID, haveFirst bool, sp *obs.Span) ([]catalog.OID, error) {
	ctx.plan.notef("forward expansion over %d steps", len(q.Steps))
	fs := startSpan(sp, "forward expansion")
	cur := first
	if !haveFirst {
		ss := startSpan(fs, "step 1 %s", q.Steps[0])
		cur = ctx.resolveStep(q.Steps[0], ss)
		ss.SetInt("matches", int64(len(cur)))
		ss.Finish()
	}
	ctx.plan.notef("  step 1 %s: %d matches", q.Steps[0], len(cur))
	bud := newBudget(e.opts.Budget)
	for i := 1; i < len(q.Steps); i++ {
		step := q.Steps[i]
		ss := startSpan(fs, "step %d %s", i+1, step)
		var matched *oidset.Set
		var touched int
		var err error
		switch step.Axis {
		case Child:
			matched, touched, err = ctx.expandChild(step, cur, bud, ss)
		case Descendant:
			matched, touched, err = ctx.expandDescendant(step, cur, bud, ss)
		default:
			matched = oidset.New(0)
		}
		ctx.plan.addIntermediates(touched)
		if err != nil {
			ss.Set("error", err.Error())
			ss.Finish()
			fs.Finish()
			return nil, err
		}
		cur = matched.Slice()
		ss.SetInt("touched", int64(touched))
		ss.SetInt("matches", int64(len(cur)))
		ss.Finish()
		ctx.plan.notef("  step %d %s: %d matches", i+1, step, len(cur))
	}
	fs.Finish()
	return cur, nil
}

// evalPathBackward resolves the final step via indexes and verifies the
// ancestor constraints by walking the reverse edges — the alternative
// processing strategy §7.2 proposes for queries like Q8. Every
// candidate's verification walk is independent, so candidates shard
// across the engine's workers.
func (e *Engine) evalPathBackward(ctx *evalCtx, q *PathQuery, sp *obs.Span) ([]catalog.OID, error) {
	ctx.plan.notef("backward expansion over %d steps", len(q.Steps))
	bs := startSpan(sp, "backward verification")
	lastIdx := len(q.Steps) - 1
	ss := startSpan(bs, "step %d %s", lastIdx+1, q.Steps[lastIdx])
	candidates := ctx.resolveStep(q.Steps[lastIdx], ss)
	ss.SetInt("candidates", int64(len(candidates)))
	ss.Finish()
	ctx.plan.notef("  step %d %s: %d candidates", lastIdx+1, q.Steps[lastIdx], len(candidates))
	bs.SetInt("candidates", int64(len(candidates)))
	if lastIdx == 0 {
		bs.Finish()
		return candidates, nil
	}
	bud := newBudget(e.opts.Budget)
	keep := make([]bool, len(candidates))
	w := ctx.workers(len(candidates), costVerifyAncestor)
	errs := make([]error, w)
	parRange(len(candidates), w, func(worker, lo, hi int) {
		ws := workerSpan(bs, w, worker, lo, hi)
		for i := lo; i < hi; i++ {
			ok, err := e.verifyAncestors(ctx, q.Steps, lastIdx, candidates[i], bud)
			if err != nil {
				errs[worker] = err
				ws.Set("error", err.Error())
				ws.Finish()
				return
			}
			keep[i] = ok
		}
		ws.Finish()
	})
	for _, err := range errs {
		if err != nil {
			bs.Finish()
			return nil, err
		}
	}
	var out []catalog.OID
	for i, ok := range keep {
		if ok {
			out = append(out, candidates[i])
		}
	}
	ctx.plan.notef("  verified: %d of %d candidates", len(out), len(candidates))
	bs.SetInt("verified", int64(len(out)))
	bs.Finish()
	return out, nil
}

// verifyAncestors checks that a candidate for step k has an ancestor
// chain matching steps k-1 ... 0.
func (e *Engine) verifyAncestors(ctx *evalCtx, steps []Step, k int, oid catalog.OID, bud *expansionBudget) (bool, error) {
	if k == 0 {
		return true, nil
	}
	step := steps[k]
	prev := steps[k-1]
	// Gather the views reachable backwards along this step's axis.
	var ancestors []catalog.OID
	switch step.Axis {
	case Child:
		ancestors = ctx.store.Parents(oid)
		ctx.plan.addIntermediates(len(ancestors))
	case Descendant:
		visited := oidset.New(0)
		frontier := []catalog.OID{oid}
		touched := 0
		for len(frontier) > 0 {
			var next []catalog.OID
			for _, f := range frontier {
				for _, p := range ctx.store.Parents(f) {
					if !visited.Add(p) {
						continue
					}
					touched++
					if !bud.take(1) {
						ctx.plan.addIntermediates(touched)
						return false, errBudget
					}
					ancestors = append(ancestors, p)
					next = append(next, p)
				}
			}
			frontier = next
		}
		ctx.plan.addIntermediates(touched)
	}
	for _, a := range ancestors {
		if !ctx.matchStep(prev, a) {
			continue
		}
		ok, err := e.verifyAncestors(ctx, steps, k-1, a, bud)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// evalJoin evaluates an equi-join with a hash join. The planner builds
// the hash table on the input with the smaller estimated cardinality and
// probes with the other; output rows are always (left, right). The two
// inputs are evaluated concurrently when the planner finds them heavy
// enough, and probing shards the probe side across workers.
func (e *Engine) evalJoin(ctx *evalCtx, q *JoinQuery, sp *obs.Span) ([][]catalog.OID, []string, error) {
	js := startSpan(sp, "join")
	ls := startSpan(js, "left input")
	rs := startSpan(js, "right input")
	var leftRows, rightRows [][]catalog.OID
	var leftErr, rightErr error
	if ctx.concurrentBranches(q.Left, q.Right) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			leftRows, _, leftErr = e.exec(ctx, q.Left, ls)
			ls.Finish()
		}()
		go func() {
			defer wg.Done()
			rightRows, _, rightErr = e.exec(ctx, q.Right, rs)
			rs.Finish()
		}()
		wg.Wait()
	} else {
		leftRows, _, leftErr = e.exec(ctx, q.Left, ls)
		ls.Finish()
		if leftErr == nil {
			rightRows, _, rightErr = e.exec(ctx, q.Right, rs)
		}
		rs.Finish()
	}
	if leftErr != nil {
		js.Finish()
		return nil, nil, leftErr
	}
	if rightErr != nil {
		js.Finish()
		return nil, nil, rightErr
	}

	// Build-side choice from estimated input cardinalities (a
	// pre-execution decision EXPLAIN can pin).
	estL, estR := ctx.estimateQuery(q.Left), ctx.estimateQuery(q.Right)
	buildLeft := estL < estR
	b := make([]byte, 0, 80)
	b = append(b, "planner: join build side by estimate: left≈"...)
	b = strconv.AppendInt(b, int64(estL), 10)
	b = append(b, " right≈"...)
	b = strconv.AppendInt(b, int64(estR), 10)
	b = append(b, " → build on "...)
	if buildLeft {
		b = append(b, "left"...)
	} else {
		b = append(b, "right"...)
	}
	ctx.plan.note(string(b))
	build, probe := rightRows, leftRows
	buildField, probeField := q.On[1], q.On[0]
	buildIsRight := true
	if buildLeft {
		build, probe = leftRows, rightRows
		buildField, probeField = q.On[0], q.On[1]
		buildIsRight = false
	}
	ctx.plan.notef("join: %d x %d rows on %s = %s (hash build on %s side)",
		len(leftRows), len(rightRows), q.On[0], q.On[1],
		map[bool]string{true: "right", false: "left"}[buildIsRight])
	js.Set("build side", map[bool]string{true: "right", false: "left"}[buildIsRight])

	hs := startSpan(js, "hash build")
	hs.SetInt("rows", int64(len(build)))
	hash := make(map[string][]catalog.OID, len(build))
	for _, row := range build {
		if len(row) != 1 {
			continue
		}
		key, ok := ctx.fieldKey(buildField, row[0])
		if !ok {
			continue
		}
		hash[key] = append(hash[key], row[0])
	}
	hs.Finish()
	ps := startSpan(js, "probe")
	ps.SetInt("rows", int64(len(probe)))
	w := ctx.workers(len(probe), costNameMatch)
	parts := make([][][]catalog.OID, w)
	parRange(len(probe), w, func(worker, lo, hi int) {
		ws := workerSpan(ps, w, worker, lo, hi)
		var out [][]catalog.OID
		for _, row := range probe[lo:hi] {
			if len(row) != 1 {
				continue
			}
			key, ok := ctx.fieldKey(probeField, row[0])
			if !ok {
				continue
			}
			for _, b := range hash[key] {
				if buildIsRight {
					out = append(out, []catalog.OID{row[0], b})
				} else {
					out = append(out, []catalog.OID{b, row[0]})
				}
			}
		}
		parts[worker] = out
		ws.SetInt("matches", int64(len(out)))
		ws.Finish()
	})
	ps.Finish()
	var out [][]catalog.OID
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	js.SetInt("matches", int64(len(out)))
	js.Finish()
	return out, []string{q.LeftAs, q.RightAs}, nil
}

// fieldKey extracts a join key from a view. Keys compare as strings;
// empty values never join.
func (c *evalCtx) fieldKey(f FieldRef, oid catalog.OID) (string, bool) {
	switch f.Kind {
	case FieldName:
		n := c.store.NameOf(oid)
		return n, n != ""
	case FieldClass:
		entry, err := c.store.Entry(oid)
		if err != nil || entry.Class == "" {
			return "", false
		}
		return entry.Class, true
	case FieldTupleAttr:
		tc, ok := c.store.Tuple(oid)
		if !ok {
			return "", false
		}
		v, ok := tc.Get(f.Attr)
		if !ok || v.IsNull() {
			return "", false
		}
		return v.String(), true
	default:
		return "", false
	}
}
