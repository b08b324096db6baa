// Package experiments regenerates every table and figure of §7 of the
// iDM paper against the synthetic personal dataset:
//
//	Table 2  — dataset characteristics (base vs derived resource views)
//	Table 3  — index sizes per source and structure
//	Figure 5 — indexing times split into catalog insert / component
//	           indexing / data source access
//	Table 4  — the eight evaluation queries and their result counts
//	Figure 6 — warm-cache query response times
//
// plus the ablation experiments DESIGN.md calls out (index vs scan,
// forward vs backward expansion, group replica on/off, push vs poll,
// lazy vs eager). Each experiment returns structured rows and renders a
// paper-style text table; cmd/idmbench prints them and the root
// bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/iql"
	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/rvm"
	"repro/internal/sources/fsplugin"
	"repro/internal/sources/mailplugin"
	"repro/internal/sources/relplugin"
	"repro/internal/sources/rssplugin"
	"repro/internal/storage"
	"repro/internal/store"
)

// Setup binds a generated dataset to a Resource View Manager configured
// like the paper's prototype (group replica on, IMAP latency model on).
type Setup struct {
	Data *dataset.Dataset
	Mgr  *rvm.Manager
	// Scale and Seed echo the generation parameters for reports.
	Scale float64
	Seed  int64
	// Report is filled by Index.
	Report rvm.SyncReport
}

// Clock is the fixed evaluation clock (Q3 references @12.06.2005).
func Clock() time.Time { return time.Date(2005, 6, 15, 10, 0, 0, 0, time.UTC) }

// DefaultMailLatency models the remote IMAP server: a small per-call
// round trip plus a per-KB transfer cost. Figure 5's email bar is
// dominated by this.
func DefaultMailLatency() mail.Latency {
	return mail.Latency{PerCall: 200 * time.Microsecond, PerKB: 20 * time.Microsecond}
}

// NewSetup generates the dataset and registers all four sources.
func NewSetup(scale float64, seed int64, withLatency bool) (*Setup, error) {
	return NewSetupWithOptions(scale, seed, withLatency, rvm.DefaultOptions())
}

// NewSetupWithOptions is NewSetup with explicit manager options (used by
// the group-replica ablation).
func NewSetupWithOptions(scale float64, seed int64, withLatency bool, opts rvm.Options) (*Setup, error) {
	cfg := dataset.Config{Scale: scale, Seed: seed}
	if withLatency {
		cfg.MailLatency = DefaultMailLatency()
	}
	d := dataset.Generate(cfg)
	mgr := rvm.New(opts)
	conv := convert.Default().Func()
	for _, err := range []error{
		mgr.AddSource(fsplugin.New("filesystem", d.FS, conv)),
		mgr.AddSource(mailplugin.New("email", d.Mail, conv)),
		mgr.AddSource(rssplugin.New("rss", d.RSS, 0)),
		mgr.AddSource(relplugin.New("reldb", d.Rel)),
	} {
		if err != nil {
			return nil, err
		}
	}
	return &Setup{Data: d, Mgr: mgr, Scale: scale, Seed: seed}, nil
}

// Index runs the full synchronization (the measured phase of Figure 5).
func (s *Setup) Index() error {
	report, err := s.Mgr.SyncAll()
	if err != nil {
		return err
	}
	s.Report = report
	return nil
}

// Engine returns an iQL engine over the setup with the given expansion
// strategy and the default worker count.
func (s *Setup) Engine(exp iql.Expansion) *iql.Engine {
	return s.EngineWith(exp, 0)
}

// EngineWith returns an iQL engine with an explicit worker count
// (1 = serial, 0 = runtime.GOMAXPROCS(0)).
func (s *Setup) EngineWith(exp iql.Expansion, parallelism int) *iql.Engine {
	return iql.NewEngine(s.Mgr, iql.Options{Expansion: exp, Now: Clock, Parallelism: parallelism})
}

// ---------------------------------------------------------------------
// Table 4 / Figure 6: the evaluation queries.
// ---------------------------------------------------------------------

// QueryDef is one evaluation query.
type QueryDef struct {
	ID  string
	IQL string
	// Note records any adaptation from the paper's literal query.
	Note string
}

// PaperQueries returns Q1–Q8 of Table 4, adapted where the synthetic
// dataset requires it (noted per query; see EXPERIMENTS.md).
func PaperQueries() []QueryDef {
	return []QueryDef{
		{ID: "Q1", IQL: `"database"`},
		{ID: "Q2", IQL: `"database tuning"`},
		{ID: "Q3", IQL: `[size > 4200 and lastmodified < @12.06.2005]`,
			Note: "size threshold scaled to synthetic file sizes (paper: 420000)"},
		{ID: "Q4", IQL: `//papers//*Vision/*["Franklin"]`},
		{ID: "Q5", IQL: `//VLDB200?//?onclusion*/*["systems"]`},
		{ID: "Q6", IQL: `union( //VLDB2005//*["documents"], //VLDB2006//*["documents"])`},
		{ID: "Q7", IQL: `join( //VLDB2006//*[class="texref"] as A, //VLDB2006//figure*[class="environment"] as B, A.name=B.tuple.label)`,
			Note: "figure selection folded into one step (figures are leaf environments here)"},
		{ID: "Q8", IQL: `join( //*[class="emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )`},
	}
}

// ---------------------------------------------------------------------
// Table 2 — dataset characteristics.
// ---------------------------------------------------------------------

// Table2Row is one row of Table 2.
type Table2Row struct {
	Source       string
	SizeMB       float64
	Base         int
	DerivedXML   int
	DerivedLatex int
	DerivedTotal int
	Total        int
}

// Table2 computes the dataset-characteristics rows for the two primary
// sources plus a total, mirroring the paper's Table 2.
func Table2(s *Setup) []Table2Row {
	rows := make([]Table2Row, 0, 3)
	var total Table2Row
	total.Source = "Total"
	for _, src := range []string{"filesystem", "email"} {
		b := s.Mgr.Breakdown(src)
		var sizeMB float64
		switch src {
		case "filesystem":
			sizeMB = mb(s.Data.Info.FSBytes)
		case "email":
			sizeMB = mb(s.Data.Info.MailBytes)
		}
		r := Table2Row{
			Source:       src,
			SizeMB:       sizeMB,
			Base:         b.Base,
			DerivedXML:   b.DerivedXML,
			DerivedLatex: b.DerivedLatex,
			DerivedTotal: b.DerivedXML + b.DerivedLatex + b.DerivedOther,
			Total:        b.Total,
		}
		rows = append(rows, r)
		total.SizeMB += r.SizeMB
		total.Base += r.Base
		total.DerivedXML += r.DerivedXML
		total.DerivedLatex += r.DerivedLatex
		total.DerivedTotal += r.DerivedTotal
		total.Total += r.Total
	}
	return append(rows, total)
}

// RenderTable2 renders Table 2 in the paper's layout.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Characteristics of the synthetic personal dataset\n")
	fmt.Fprintf(&b, "%-12s %10s %10s | %10s %10s %10s | %10s\n",
		"Data Source", "Size (MB)", "Base", "XML", "LaTeX", "Derived", "Total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.1f %10d | %10d %10d %10d | %10d\n",
			r.Source, r.SizeMB, r.Base, r.DerivedXML, r.DerivedLatex, r.DerivedTotal, r.Total)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Table 3 — index sizes.
// ---------------------------------------------------------------------

// Table3Row is one row of Table 3 (sizes in MB).
type Table3Row struct {
	Source     string
	NetInputMB float64
	Name       float64
	Tuple      float64
	Content    float64
	Group      float64
	Catalog    float64
	Total      float64
}

// Table3 measures per-source index sizes by indexing each source into
// its own fresh manager (exact per-source attribution), plus the
// combined total row.
func Table3(scale float64, seed int64) ([]Table3Row, error) {
	d := dataset.Generate(dataset.Config{Scale: scale, Seed: seed})
	conv := convert.Default().Func()

	perSource := []struct {
		name string
		add  func(m *rvm.Manager) error
	}{
		{"filesystem", func(m *rvm.Manager) error {
			return m.AddSource(fsplugin.New("filesystem", d.FS, conv))
		}},
		{"email", func(m *rvm.Manager) error {
			return m.AddSource(mailplugin.New("email", d.Mail, conv))
		}},
	}
	var rows []Table3Row
	var total Table3Row
	total.Source = "Total"
	for _, src := range perSource {
		m := rvm.New(rvm.DefaultOptions())
		if err := src.add(m); err != nil {
			return nil, err
		}
		if _, err := m.SyncAll(); err != nil {
			return nil, err
		}
		sz := m.IndexSizes()
		r := Table3Row{
			Source:     src.name,
			NetInputMB: mb(m.NetInputBytes(src.name)),
			Name:       mb(sz.Name),
			Tuple:      mb(sz.Tuple),
			Content:    mb(sz.Content),
			Group:      mb(sz.Group),
			Catalog:    mb(sz.Catalog),
			Total:      mb(sz.Total()),
		}
		rows = append(rows, r)
		total.NetInputMB += r.NetInputMB
		total.Name += r.Name
		total.Tuple += r.Tuple
		total.Content += r.Content
		total.Group += r.Group
		total.Catalog += r.Catalog
		total.Total += r.Total
	}
	return append(rows, total), nil
}

// RenderTable3 renders Table 3 in the paper's layout.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: Index sizes for the synthetic personal dataset (MB)\n")
	fmt.Fprintf(&b, "%-12s %10s | %8s %8s %8s %8s %8s | %8s\n",
		"Data Source", "Net Input", "Name", "Tuple", "Content", "Group", "Catalog", "Total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.2f | %8.2f %8.2f %8.2f %8.2f %8.2f | %8.2f\n",
			r.Source, r.NetInputMB, r.Name, r.Tuple, r.Content, r.Group, r.Catalog, r.Total)
	}
	if len(rows) > 0 {
		last := rows[len(rows)-1]
		if last.NetInputMB > 0 {
			fmt.Fprintf(&b, "Total index size is %.1f%% of net input data size (paper: 67.5%%)\n",
				100*last.Total/last.NetInputMB)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 5 — indexing times.
// ---------------------------------------------------------------------

// Figure5Row is one bar of Figure 5 (one data source, three segments).
type Figure5Row struct {
	Source            string
	CatalogInsert     time.Duration
	ComponentIndexing time.Duration
	DataSourceAccess  time.Duration
	Views             int
}

// Total returns the bar height.
func (r Figure5Row) Total() time.Duration {
	return r.CatalogInsert + r.ComponentIndexing + r.DataSourceAccess
}

// Figure5 runs a full indexing pass with the IMAP latency model on and
// returns the per-source timing split.
func Figure5(scale float64, seed int64) ([]Figure5Row, error) {
	s, err := NewSetup(scale, seed, true)
	if err != nil {
		return nil, err
	}
	if err := s.Index(); err != nil {
		return nil, err
	}
	var rows []Figure5Row
	for _, t := range s.Report.Timings {
		if t.Source != "filesystem" && t.Source != "email" {
			continue
		}
		rows = append(rows, Figure5Row{
			Source:            t.Source,
			CatalogInsert:     t.CatalogInsert,
			ComponentIndexing: t.ComponentIndexing,
			DataSourceAccess:  t.DataSourceAccess,
			Views:             t.Views,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Source < rows[j].Source })
	return rows, nil
}

// RenderFigure5 renders the indexing-time bars as a text chart.
func RenderFigure5(rows []Figure5Row) string {
	var b strings.Builder
	b.WriteString("Figure 5: Indexing times per data source\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %14s %14s %8s\n",
		"Data Source", "Catalog", "Indexing", "Source Access", "Total", "Views")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %14s %14s %14s %14s %8d\n",
			r.Source, r.CatalogInsert.Round(time.Microsecond),
			r.ComponentIndexing.Round(time.Microsecond),
			r.DataSourceAccess.Round(time.Microsecond),
			r.Total().Round(time.Microsecond), r.Views)
	}
	for _, r := range rows {
		if r.Source == "email" && r.Total() > 0 {
			fmt.Fprintf(&b, "Email indexing is %.0f%% data-source access (paper: dominated by access)\n",
				100*float64(r.DataSourceAccess)/float64(r.Total()))
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Table 4 and Figure 6 — queries and response times.
// ---------------------------------------------------------------------

// QueryRow is one row of Table 4 plus its Figure 6 response time.
type QueryRow struct {
	ID      string
	IQL     string
	Results int
	// Warm is the warm-cache mean response time over Runs executions.
	Warm time.Duration
	Runs int
	// Intermediates is the expansion work (discussed for Q8 in §7.2).
	Intermediates int
	Note          string
}

// RunQueries evaluates the paper queries with warm-cache repetition,
// producing Table 4 (counts) and Figure 6 (times) in one pass.
func RunQueries(s *Setup, exp iql.Expansion, runs int) ([]QueryRow, error) {
	return RunQueriesWith(s, exp, runs, 0)
}

// RunQueriesWith is RunQueries with an explicit engine worker count.
func RunQueriesWith(s *Setup, exp iql.Expansion, runs, parallelism int) ([]QueryRow, error) {
	if runs <= 0 {
		runs = 5
	}
	engine := s.EngineWith(exp, parallelism)
	var rows []QueryRow
	for _, q := range PaperQueries() {
		// Warm-up run (also yields count and plan stats).
		res, err := engine.Query(q.IQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		start := time.Now()
		for i := 0; i < runs; i++ {
			if _, err := engine.Query(q.IQL); err != nil {
				return nil, fmt.Errorf("%s: %w", q.ID, err)
			}
		}
		elapsed := time.Since(start)
		rows = append(rows, QueryRow{
			ID:            q.ID,
			IQL:           q.IQL,
			Results:       res.Count(),
			Warm:          elapsed / time.Duration(runs),
			Runs:          runs,
			Intermediates: int(res.Plan.Intermediates),
			Note:          q.Note,
		})
	}
	return rows, nil
}

// RenderTable4 renders the query/result-count table.
func RenderTable4(rows []QueryRow) string {
	var b strings.Builder
	b.WriteString("Table 4: iQL queries used in the evaluation\n")
	fmt.Fprintf(&b, "%-4s %-90s %10s\n", "ID", "iQL Query expression", "# Results")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %-90s %10d\n", r.ID, r.IQL, r.Results)
	}
	return b.String()
}

// RenderFigure6 renders the response-time chart.
func RenderFigure6(rows []QueryRow) string {
	var b strings.Builder
	b.WriteString("Figure 6: Query response times (warm cache)\n")
	var max time.Duration
	for _, r := range rows {
		if r.Warm > max {
			max = r.Warm
		}
	}
	for _, r := range rows {
		barLen := 0
		if max > 0 {
			barLen = int(40 * r.Warm / max)
		}
		fmt.Fprintf(&b, "%-4s %12s  %s (intermediates: %d)\n",
			r.ID, r.Warm.Round(time.Microsecond), strings.Repeat("#", barLen), r.Intermediates)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Scan baseline (grep-style) for the index-vs-scan ablation.
// ---------------------------------------------------------------------

// ScanPhrase answers a content phrase query by walking every live view
// and reading its content — the grep-like baseline the paper's
// introduction contrasts against.
func ScanPhrase(m *rvm.Manager, phrase string) []catalog.OID {
	needle := strings.ToLower(phrase)
	var out []catalog.OID
	for _, oid := range m.AllOIDs() {
		v, ok := m.View(oid)
		if !ok {
			continue
		}
		content := v.Content()
		if core.IsEmptyContent(content) || !content.Finite() {
			continue
		}
		b, err := core.ReadAllContent(content, 4<<20)
		if err != nil {
			continue
		}
		if strings.Contains(strings.ToLower(string(b)), needle) {
			out = append(out, oid)
		}
	}
	return out
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// ---------------------------------------------------------------------
// BENCH_iql.json — serial vs parallel engine microbenchmark.
// ---------------------------------------------------------------------

// BenchMode holds the per-execution-mode numbers of one benchmark query.
type BenchMode struct {
	NsPerOp       int64 `json:"ns_per_op"`
	AllocsPerOp   int64 `json:"allocs_per_op"`
	Intermediates int64 `json:"intermediates"`
	Results       int   `json:"results"`
}

// PlannerChoice records the planner's decisions for one query: the chosen top-level strategy (forward/backward/predicate/
// union/join/single step) and the estimated vs actual result rows, so
// drift in estimation quality is visible in the committed report.
type PlannerChoice struct {
	Strategy      string `json:"strategy"`
	EstimatedRows int64  `json:"estimated_rows"`
	ActualRows    int64  `json:"actual_rows"`
}

// BenchQuery is one Table 4 query measured serial (Parallelism 1) and
// parallel (Parallelism N), both with automatic expansion.
type BenchQuery struct {
	ID       string    `json:"id"`
	IQL      string    `json:"iql"`
	Serial   BenchMode `json:"serial"`
	Parallel BenchMode `json:"parallel"`
	// Speedup is serial ns/op over parallel ns/op (> 1 means the
	// parallel engine won).
	Speedup float64 `json:"speedup"`
	// Planner records the serial run's plan decisions (schema v3); the
	// planner makes the same ones at any parallelism.
	Planner PlannerChoice `json:"planner"`
}

// ScaleSection is the scale_10x section of schema v3: the same
// per-query measurements over a dataset 10× the report's main scale,
// where cost-based planning pays most.
type ScaleSection struct {
	Scale   float64      `json:"scale"`
	Queries []BenchQuery `json:"queries"`
}

// BenchReport is the stable schema of BENCH_iql.json. SchemaVersion
// bumps on additions (incompatible changes would fork the file name):
// version 2 added the optional obs_overhead section; version 3 added
// num_cpu, the per-query adaptive mode with its planner section, and
// the optional scale_10x section; version 4 added the query-log mode
// to obs_overhead; version 5 added the optional index_build section
// (cold-start restore, incremental vs counting bulk); version 6 dropped
// the adaptive mode and adaptive_speedup, since serial and parallel now
// run the one planner. Readers of older versions still parse newer
// files by ignoring the unknown keys.
type BenchReport struct {
	SchemaVersion int     `json:"schema_version"`
	Tool          string  `json:"tool"`
	Scale         float64 `json:"scale"`
	Seed          int64   `json:"seed"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	// NumCPU records the machine's core count (schema v3): speedup
	// numbers are meaningless without it, and the planner's
	// serial-on-small-machines choices only make sense against it.
	NumCPU      int          `json:"num_cpu"`
	Parallelism int          `json:"parallelism"`
	Runs        int          `json:"runs"`
	Queries     []BenchQuery `json:"queries"`
	// Scale10x holds the 10×-scale measurements (schema v3; omitted
	// when not measured).
	Scale10x *ScaleSection `json:"scale_10x,omitempty"`
	// ObsOverhead reports the instrumentation-cost microbenchmark
	// (schema v2; omitted when not measured).
	ObsOverhead *ObsOverhead `json:"obs_overhead,omitempty"`
	// IndexBuild reports the cold-start index construction benchmark
	// (schema v5; omitted when not measured).
	IndexBuild *IndexBuild `json:"index_build,omitempty"`
}

// measureEngine times runs repetitions of one query and derives per-op
// allocation counts from the runtime's Mallocs counter. The returned
// result is the warm-up run's (plan statistics included).
func measureEngine(e *iql.Engine, src string, runs int) (BenchMode, *iql.Result, error) {
	res, err := e.Query(src) // warm-up; also yields count and plan stats
	if err != nil {
		return BenchMode{}, nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < runs; i++ {
		if _, err := e.Query(src); err != nil {
			return BenchMode{}, nil, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return BenchMode{
		NsPerOp:       elapsed.Nanoseconds() / int64(runs),
		AllocsPerOp:   int64(after.Mallocs-before.Mallocs) / int64(runs),
		Intermediates: res.Plan.Intermediates,
		Results:       res.Count(),
	}, res, nil
}

// benchReps is the number of interleaved timing repetitions per lane;
// each lane reports its fastest repetition. Min-of-reps with the lanes
// interleaved is robust against scheduler noise on small machines,
// where a single timing per lane can swing 2× run to run (the same
// approach BenchObsOverhead uses).
const benchReps = 25

// benchTargetBatchNs is the wall-clock a timing batch aims for. Batches
// are deliberately SHORT (~5ms): each starts from a collected heap, and
// a batch that outruns its allocation headroom pays a GC cycle (and, in
// a CPU-quota'd container, a throttling stall) inside the timed region.
// Measured on the evaluation queries, 50ms batches read 1.5–2× slower
// per op than 5ms batches with an order of magnitude more spread;
// min-of-reps over many short batches is the stable estimator.
const benchTargetBatchNs = 5e6

// timeBatch times iters executions of one query, starting from a
// collected heap so no lane pays another's GC debt.
func timeBatch(e *iql.Engine, src string, iters int) (int64, error) {
	runtime.GC()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := e.Query(src); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / int64(iters), nil
}

// benchQueries measures every Table 4 query in the two lanes (serial
// and parallel, both with automatic expansion) over reps timing
// repetitions, checking result equality between them as it goes.
func benchQueries(s *Setup, runs, parallelism, reps int) ([]BenchQuery, error) {
	lanes := []*iql.Engine{
		s.EngineWith(iql.AutoExpansion, 1),
		s.EngineWith(iql.AutoExpansion, parallelism),
	}
	laneName := []string{"serial", "parallel"}
	var out []BenchQuery
	for _, q := range PaperQueries() {
		modes := make([]BenchMode, len(lanes))
		results := make([]*iql.Result, len(lanes))
		// First pass warms caches and yields alloc counts, result counts
		// and plan statistics per lane.
		for i, e := range lanes {
			m, res, err := measureEngine(e, q.IQL, runs)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", q.ID, laneName[i], err)
			}
			modes[i], results[i] = m, res
		}
		// Calibrate each lane's batch size from its own warm timing (a
		// shared size would make slow lanes pay second-long batches when
		// another lane is a thousand times faster), then time interleaved
		// batches keeping each lane's min.
		iters := make([]int, len(lanes))
		for i, m := range modes {
			iters[i] = runs
			if m.NsPerOp > 0 {
				if n := int(benchTargetBatchNs/m.NsPerOp) + 1; n > iters[i] {
					iters[i] = n
				}
			}
		}
		// Rotate the lane order every repetition: a fixed order hands
		// whichever lane follows the other a systematic penalty (scheduler and allocator state leak across
		// batches even with a forced GC between them).
		for rep := 0; rep < reps; rep++ {
			for k := range lanes {
				i := (rep + k) % len(lanes)
				ns, err := timeBatch(lanes[i], q.IQL, iters[i])
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", q.ID, laneName[i], err)
				}
				if ns < modes[i].NsPerOp {
					modes[i].NsPerOp = ns
				}
			}
		}
		sm, pm := modes[0], modes[1]
		if sm.Results != pm.Results {
			return nil, fmt.Errorf("%s: serial found %d results, parallel %d",
				q.ID, sm.Results, pm.Results)
		}
		bq := BenchQuery{ID: q.ID, IQL: q.IQL, Serial: sm, Parallel: pm}
		if pm.NsPerOp > 0 {
			bq.Speedup = float64(sm.NsPerOp) / float64(pm.NsPerOp)
		}
		bq.Planner = PlannerChoice{
			Strategy:      results[0].Plan.Strategy,
			EstimatedRows: results[0].Plan.EstimatedRows,
			ActualRows:    int64(results[0].Count()),
		}
		out = append(out, bq)
	}
	return out, nil
}

// BenchIQL measures every Table 4 query with a serial engine and a
// parallel engine of the given worker count (0 = GOMAXPROCS), checking
// result equality between the two as it goes.
func BenchIQL(s *Setup, runs, parallelism int) (*BenchReport, error) {
	return benchIQL(s, runs, parallelism, benchReps)
}

// benchIQL is BenchIQL with reps timing repetitions per lane.
func benchIQL(s *Setup, runs, parallelism, reps int) (*BenchReport, error) {
	if runs <= 0 {
		runs = 10
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	rep := &BenchReport{
		SchemaVersion: 6,
		Tool:          "idmbench",
		Scale:         s.Scale,
		Seed:          s.Seed,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Parallelism:   parallelism,
		Runs:          runs,
	}
	queries, err := benchQueries(s, runs, parallelism, reps)
	if err != nil {
		return nil, err
	}
	rep.Queries = queries
	return rep, nil
}

// BenchIQLAtScale builds and indexes a fresh dataset at the given scale
// and measures both lanes over it — the scale_10x section of schema
// v3.
func BenchIQLAtScale(scale float64, seed int64, runs, parallelism int) (*ScaleSection, error) {
	if runs <= 0 {
		runs = 10
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	s, err := NewSetup(scale, seed, false)
	if err != nil {
		return nil, err
	}
	if err := s.Index(); err != nil {
		return nil, err
	}
	queries, err := benchQueries(s, runs, parallelism, benchReps)
	if err != nil {
		return nil, err
	}
	return &ScaleSection{Scale: scale, Queries: queries}, nil
}

// ---------------------------------------------------------------------
// obs_overhead — cost of the observability layer on the query path.
// ---------------------------------------------------------------------

// ObsQueryOverhead is one query's instrumentation-cost measurement:
// ns/op with no registry wired (baseline), with a wired-but-disabled
// registry (the default production posture when metrics are off), with
// recording enabled, and with recording plus the query log (schema v4:
// every completed query appended to the ring).
type ObsQueryOverhead struct {
	ID              string `json:"id"`
	BaselineNsPerOp int64  `json:"baseline_ns_per_op"`
	DisabledNsPerOp int64  `json:"disabled_ns_per_op"`
	EnabledNsPerOp  int64  `json:"enabled_ns_per_op"`
	QueryLogNsPerOp int64  `json:"querylog_ns_per_op"`
	// Overheads are relative to baseline; small negatives are
	// measurement noise.
	DisabledOverheadPct float64 `json:"disabled_overhead_pct"`
	EnabledOverheadPct  float64 `json:"enabled_overhead_pct"`
	QueryLogOverheadPct float64 `json:"querylog_overhead_pct"`
}

// ObsOverhead is the obs_overhead section of BENCH_iql.json
// (schema_version 2; the query-log mode is v4). The acceptance targets
// are mean disabled overhead ≤ 2% (wired instruments must be near-free
// when the registry is off) and mean query-log overhead ≤ 3% (full
// per-query accounting plus ring recording stays in noise territory).
type ObsOverhead struct {
	Runs                    int                `json:"runs"`
	Reps                    int                `json:"reps"`
	Queries                 []ObsQueryOverhead `json:"queries"`
	MeanDisabledOverheadPct float64            `json:"mean_disabled_overhead_pct"`
	MeanEnabledOverheadPct  float64            `json:"mean_enabled_overhead_pct"`
	MeanQueryLogOverheadPct float64            `json:"mean_querylog_overhead_pct"`
}

// BenchObsOverhead measures the instrumentation cost on every Table 4
// query with three serial engines over the same manager: no registry,
// disabled registry, enabled registry. Each mode runs reps times
// interleaved and keeps the fastest repetition — min-of-reps is robust
// against scheduler noise on small machines, where a mean would drown
// the sub-percent effect being measured.
func BenchObsOverhead(s *Setup, runs, reps int) (*ObsOverhead, error) {
	if runs <= 0 {
		runs = 10
	}
	if reps <= 0 {
		reps = 3
	}
	baseline := iql.NewEngine(s.Mgr, iql.Options{Expansion: iql.ForwardExpansion, Now: Clock, Parallelism: 1})
	disReg := obs.NewRegistry()
	disReg.SetEnabled(false)
	disabled := iql.NewEngine(s.Mgr, iql.Options{Expansion: iql.ForwardExpansion, Now: Clock, Parallelism: 1, Metrics: disReg})
	enReg := obs.NewRegistry()
	enabled := iql.NewEngine(s.Mgr, iql.Options{Expansion: iql.ForwardExpansion, Now: Clock, Parallelism: 1, Metrics: enReg})
	// The query-log mode is the full production posture: enabled
	// registry plus a query log recording every completed query. The
	// slow threshold is left high enough that no benchmark query
	// triggers the traced re-execution — that path is deliberately
	// expensive and separately documented.
	qlReg := obs.NewRegistry()
	qlog := obs.NewQueryLog(0, time.Hour)
	querylog := iql.NewEngine(s.Mgr, iql.Options{Expansion: iql.ForwardExpansion, Now: Clock, Parallelism: 1, Metrics: qlReg, QueryLog: qlog})

	// time one batch of iters executions; min-of-reps over these batches
	// is the reported ns/op.
	batch := func(e *iql.Engine, src string, iters int) (int64, error) {
		// Start every batch from a collected heap so no mode pays
		// another's GC debt.
		runtime.GC()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := e.Query(src); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Nanoseconds() / int64(iters), nil
	}

	out := &ObsOverhead{Runs: runs, Reps: reps}
	var disSum, enSum, qlSum float64
	for _, q := range PaperQueries() {
		row := ObsQueryOverhead{ID: q.ID}
		// Warm up and calibrate the batch size so one batch runs long
		// enough (~50ms) that scheduler jitter can't fake a percent-level
		// difference between modes.
		warm := time.Now()
		if _, err := baseline.Query(q.IQL); err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		perOp := time.Since(warm)
		iters := runs
		if perOp > 0 {
			if n := int(40 * time.Millisecond / perOp); n > iters {
				iters = n
			}
		}
		modes := []struct {
			engine *iql.Engine
			out    *int64
		}{
			{baseline, &row.BaselineNsPerOp},
			{disabled, &row.DisabledNsPerOp},
			{enabled, &row.EnabledNsPerOp},
			{querylog, &row.QueryLogNsPerOp},
		}
		for rep := 0; rep < reps; rep++ {
			// Rotate the mode order each repetition so slow drift
			// (thermal, background load) doesn't bias one mode.
			for i := range modes {
				m := modes[(rep+i)%len(modes)]
				v, err := batch(m.engine, q.IQL, iters)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", q.ID, err)
				}
				if *m.out == 0 || v < *m.out {
					*m.out = v
				}
			}
		}
		if row.BaselineNsPerOp > 0 {
			row.DisabledOverheadPct = 100 * float64(row.DisabledNsPerOp-row.BaselineNsPerOp) / float64(row.BaselineNsPerOp)
			row.EnabledOverheadPct = 100 * float64(row.EnabledNsPerOp-row.BaselineNsPerOp) / float64(row.BaselineNsPerOp)
			row.QueryLogOverheadPct = 100 * float64(row.QueryLogNsPerOp-row.BaselineNsPerOp) / float64(row.BaselineNsPerOp)
		}
		disSum += row.DisabledOverheadPct
		enSum += row.EnabledOverheadPct
		qlSum += row.QueryLogOverheadPct
		out.Queries = append(out.Queries, row)
	}
	if n := float64(len(out.Queries)); n > 0 {
		out.MeanDisabledOverheadPct = disSum / n
		out.MeanEnabledOverheadPct = enSum / n
		out.MeanQueryLogOverheadPct = qlSum / n
	}
	return out, nil
}

// ---------------------------------------------------------------------
// index_build — cold-start index construction: incremental vs bulk.
// ---------------------------------------------------------------------

// IndexBuild is the index_build section of BENCH_iql.json (schema v5):
// the time to rebuild the Replica & Indexes module from a recovered
// durable state, by per-record incremental insertion (what a follower
// replaying the same records does) and by the counting bulk build
// OpenDurable uses on a cold start.
type IndexBuild struct {
	Scale float64 `json:"scale"`
	Views int     `json:"views"`
	Reps  int     `json:"reps"`
	// IncrementalNs and BulkNs are each the fastest of Reps interleaved
	// full restores (min-of-reps, like every other section).
	IncrementalNs int64 `json:"incremental_ns"`
	BulkNs        int64 `json:"bulk_ns"`
	// Speedup is IncrementalNs / BulkNs.
	Speedup float64 `json:"speedup"`
}

// BenchIndexBuild generates and indexes a dataset at the given scale
// through a WAL-backed manager, clones the durable state — exactly what
// recovery hands OpenDurable — and times rebuilding a manager from it
// both ways: RestoreFromState (bulk), and the state's records fed one
// ApplyRecord at a time into the live indexes (incremental). Both lanes
// start from a catalog rebuilt outside the timed region.
func BenchIndexBuild(scale float64, seed int64, reps int) (*IndexBuild, error) {
	if reps <= 0 {
		reps = 3
	}
	dir, err := os.MkdirTemp("", "idmbench-ixbuild-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	eng, _, err := storage.Open(dir, storage.Options{Sync: store.SyncNever})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	opts := rvm.DefaultOptions()
	opts.Store = eng
	s, err := NewSetupWithOptions(scale, seed, false, opts)
	if err != nil {
		return nil, err
	}
	if err := s.Index(); err != nil {
		return nil, err
	}
	state, _ := eng.CloneState()
	recs := state.Records()

	out := &IndexBuild{Scale: scale, Views: len(state.Views), Reps: reps}
	rebuild := func(incremental bool) (int64, error) {
		m := rvm.NewWithCatalog(rvm.DefaultOptions(), catalog.Rebuild(state.NextOID, state.Entries()))
		runtime.GC()
		start := time.Now()
		if incremental {
			for _, rec := range recs {
				if err := m.ApplyRecord(rec); err != nil {
					return 0, err
				}
			}
		} else {
			m.RestoreFromState(state)
		}
		ns := time.Since(start).Nanoseconds()
		if m.Count() != out.Views {
			return 0, fmt.Errorf("rebuild produced %d views, want %d", m.Count(), out.Views)
		}
		return ns, nil
	}
	// Interleave the two lanes and keep each one's fastest repetition.
	for rep := 0; rep < reps; rep++ {
		for _, incremental := range []bool{rep%2 == 0, rep%2 != 0} {
			ns, err := rebuild(incremental)
			if err != nil {
				return nil, err
			}
			best := &out.BulkNs
			if incremental {
				best = &out.IncrementalNs
			}
			if *best == 0 || ns < *best {
				*best = ns
			}
		}
	}
	if out.BulkNs > 0 {
		out.Speedup = float64(out.IncrementalNs) / float64(out.BulkNs)
	}
	return out, nil
}
