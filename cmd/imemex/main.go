// Command imemex is an interactive shell and one-shot query tool for an
// iDM personal dataspace: it generates the synthetic dataset, indexes it
// through the Resource View Manager and evaluates iQL queries.
//
// Usage:
//
//	imemex [-scale 0.05] [-seed 42] [query...]
//
// With query arguments, each is evaluated and printed; without, an
// interactive read-eval-print loop starts. REPL commands (`:` and `\`
// prefixes are interchangeable):
//
//	\help            show help
//	\sources         list data sources and their Table 2 breakdowns
//	\sizes           show index sizes (Table 3)
//	\plan <query>    show the planner notes for a query
//	\explain <query> evaluate with tracing and print the span tree
//	\stats           session metrics and query-cache statistics
//	\history [n]     recent queries from the query log (latency + stats)
//	\slow [n]        slow queries (≥ -slow-query) with their trace renders
//	\health          per-source degradation and circuit-breaker status
//	\checkpoint      compact the durable store into a fresh snapshot
//	\quit            exit
//
// -data-dir makes the dataspace durable: replica commits are written to
// a checksummed write-ahead log before they are applied, and a restart
// recovers the catalog, indexes and replicas from the latest snapshot
// plus the WAL tail (see docs/PERSISTENCE.md). -fsync tunes the flush
// policy.
//
// -resilient wraps every source in the retry/timeout/circuit-breaker
// proxy; -fault injects deterministic failures for chaos drills (e.g.
// -fault 'filesystem/root:error:0.5'); see docs/RESILIENCE.md. Queries
// answered while a source is down print a stale-results banner.
//
// -debug-addr serves the observability surface over HTTP:
// /debug/metrics (JSON snapshot), /debug/metrics/prom (Prometheus text
// exposition), /debug/queries (query log), /debug/vars (expvar) and
// /debug/pprof/ (see docs/OBSERVABILITY.md). -slow-query sets the
// slow-query threshold and -query-log the log's ring capacity.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	idm "repro"
	"repro/internal/obs"
	"repro/internal/osload"
)

func main() {
	scale := flag.Float64("scale", 0.05, "dataset scale (1.0 = paper shape)")
	seed := flag.Int64("seed", 42, "dataset generator seed")
	dir := flag.String("dir", "", "index a real directory instead of the synthetic dataspace")
	maxFile := flag.Int64("maxfile", 1<<20, "with -dir: skip files larger than this many bytes")
	hidden := flag.Bool("hidden", false, "with -dir: include hidden files and directories")
	limit := flag.Int("limit", 10, "max results to print per query")
	debugAddr := flag.String("debug-addr", "", "serve /debug/metrics, /debug/queries, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	slowQuery := flag.Duration("slow-query", 250*time.Millisecond, "slow-query threshold: queries at or over it retain a full trace in the query log (0 disables)")
	queryLog := flag.Int("query-log", 0, "query log ring capacity (0 = default 256, negative disables the log)")
	resilient := flag.Bool("resilient", false, "wrap sources in the retry/timeout/circuit-breaker proxy (docs/RESILIENCE.md)")
	failClosed := flag.Bool("fail-closed", false, "reject queries while a source is degraded instead of serving stale replicas")
	dataDir := flag.String("data-dir", "", "durable dataspace directory: WAL + snapshots, recovered on startup (docs/PERSISTENCE.md)")
	fsync := flag.String("fsync", "commit", "with -data-dir: WAL flush policy, commit|always|never")
	replicaDir := flag.String("replica-dir", "", "with -data-dir: attach a WAL-shipping read replica in this directory, with the same -fsync (docs/REPLICATION.md)")
	var faultRules []idm.FaultRule
	flag.Func("fault", "inject a fault, spec point:kind[:p[:times]] (repeatable; kind error|latency[@dur]|partial|corrupt)", func(spec string) error {
		r, err := idm.ParseFaultRule(spec)
		if err != nil {
			return err
		}
		faultRules = append(faultRules, r)
		return nil
	})
	flag.Parse()

	cfg := idm.Config{QueryLogSize: *queryLog}
	if *slowQuery > 0 {
		cfg.SlowQuery = *slowQuery
	} else {
		cfg.SlowQuery = -1 // 0 means "default" to the library; the flag's 0 means off
	}
	if *resilient {
		cfg.Resilience = &idm.ResiliencePolicy{}
	}
	if *failClosed {
		cfg.DegradedReads = idm.FailClosed
	}
	cfg.DataDir = *dataDir
	switch strings.ToLower(*fsync) {
	case "commit", "":
		cfg.Fsync = idm.SyncOnCommit
	case "always":
		cfg.Fsync = idm.SyncAlways
	case "never":
		cfg.Fsync = idm.SyncNever
	default:
		fmt.Fprintf(os.Stderr, "imemex: unknown -fsync policy %q (commit|always|never)\n", *fsync)
		os.Exit(2)
	}
	if len(faultRules) > 0 {
		inj := idm.NewFaultInjector(*seed)
		for _, r := range faultRules {
			inj.Add(r)
		}
		cfg.Faults = inj
		fmt.Fprintf(os.Stderr, "fault injection armed: %d rule(s)\n", len(faultRules))
	}

	var sys *idm.System
	if *dir != "" {
		fmt.Fprintf(os.Stderr, "importing %s...\n", *dir)
		vf := idm.NewFileSystem()
		st, err := osload.Load(vf, *dir, osload.Options{MaxFileBytes: *maxFile, IncludeHidden: *hidden})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "imported %d files in %d folders (%.1f MB; skipped %d large, %d other)\n",
			st.Files, st.Folders, float64(st.Bytes)/(1<<20), st.SkippedLarge, st.SkippedOther)
		sys = openDurable(cfg)
		if err := sys.AddFileSystem("filesystem", vf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Fprintf(os.Stderr, "generating synthetic personal dataspace (scale %.2f, seed %d)...\n", *scale, *seed)
		data := idm.GenerateDataset(idm.DatasetConfig{Scale: *scale, Seed: *seed})
		cfg.Now = evalClock
		sys = openDurable(cfg)
		if err := sys.AddDataset(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	defer sys.Close()
	start := time.Now()
	report, err := sys.Index()
	if err != nil {
		// With fault injection or flaky real sources the sync may partially
		// fail; healthy sources are still indexed, so keep going and let
		// \health and the stale banner tell the story.
		fmt.Fprintf(os.Stderr, "warning: partial index: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "indexed %d resource views from %d sources in %v\n\n",
		report.TotalViews(), len(report.Timings), time.Since(start).Round(time.Millisecond))

	if *debugAddr != "" {
		bound, shutdown, err := obs.ServeWith(*debugAddr, sys.Metrics(), sys.QueryLog())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "debug surface on http://%s/debug/\n\n", bound)
	}

	var rep *idm.Replica
	if *replicaDir != "" {
		leader := sys.ReplicationLeader()
		if leader == nil {
			fmt.Fprintln(os.Stderr, "imemex: -replica-dir requires -data-dir (the replica tails the durable WAL)")
			os.Exit(2)
		}
		rep, err = idm.OpenReplica(*replicaDir, leader, idm.Config{Now: cfg.Now, Fsync: cfg.Fsync})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer rep.Close()
		if err := rep.CatchUp(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: replica catch-up: %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "read replica at %s: applied LSN %d, lag %d\n\n",
			*replicaDir, rep.AppliedLSN(), rep.Lag())
	}

	if flag.NArg() > 0 {
		for _, q := range flag.Args() {
			runQuery(sys, q, *limit)
		}
		return
	}
	repl(sys, rep, *limit)
}

// openDurable opens the system, printing a recovery banner when
// -data-dir resumed a persisted dataspace.
func openDurable(cfg idm.Config) *idm.System {
	sys, info, err := idm.OpenDurable(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if info != nil {
		fmt.Fprintf(os.Stderr, "recovered %d views from %s (snapshot #%d + %d WAL records) in %v\n",
			info.Views, cfg.DataDir, info.SnapshotSeq, info.WALRecords,
			info.Elapsed.Round(time.Millisecond))
		for _, w := range info.Warnings {
			fmt.Fprintf(os.Stderr, "  recovery warning: %s\n", w)
		}
	}
	return sys
}

// evalClock pins "now" into the paper's era so date functions such as
// yesterday() interact sensibly with the generated timestamps.
func evalClock() time.Time {
	return time.Date(2005, 6, 15, 10, 0, 0, 0, time.UTC)
}

func runQuery(sys *idm.System, q string, limit int) {
	start := time.Now()
	res, err := sys.Query(q)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	rate := ""
	if sec := elapsed.Seconds(); sec > 0 && res.Count() > 0 {
		rate = fmt.Sprintf(", %s rows/s", fmtRate(float64(res.Count())/sec))
	}
	// The session mean comes from the idm_query_ns histogram, which has
	// seen every query this process ran (including this one).
	h := sys.Metrics().Snapshot().Histograms["idm_query_ns"]
	session := ""
	if h.Count > 1 {
		session = fmt.Sprintf(" (session mean %v over %d queries)",
			time.Duration(h.Mean()).Round(time.Microsecond), h.Count)
	}
	fmt.Printf("iql> %s\n%d results in %v%s%s\n", q, res.Count(), elapsed.Round(time.Microsecond), rate, session)
	printRows(res, limit)
}

// runReplicaQuery evaluates q on the attached read replica; a lagging
// replica flags its answers stale with the replication-lag tag.
func runReplicaQuery(rep *idm.Replica, q string, limit int) {
	start := time.Now()
	res, err := rep.Query(q)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	fmt.Printf("replica> %s\n%d results in %v\n", q, res.Count(), elapsed.Round(time.Microsecond))
	printRows(res, limit)
}

func printRows(res *idm.Result, limit int) {
	if res.Stale {
		fmt.Printf("  ⚠ stale: %s — serving last-good replicas (\\health for detail)\n",
			strings.Join(res.StaleSources, ", "))
	}
	for i, row := range res.Rows {
		if i >= limit {
			fmt.Printf("  ... and %d more\n", res.Count()-limit)
			break
		}
		var parts []string
		for j, item := range row {
			col := ""
			if len(res.Columns) > j && len(row) > 1 {
				col = res.Columns[j] + "="
			}
			parts = append(parts, fmt.Sprintf("%s%s [%s] %s", col, item.Name, item.Class, item.Path))
		}
		fmt.Printf("  %s\n", strings.Join(parts, "  ⋈  "))
	}
	fmt.Println()
}

func repl(sys *idm.System, rep *idm.Replica, limit int) {
	fmt.Println(`iMeMex iQL shell — \help for commands, \quit to exit`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("iql> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		// `:stats` and `\stats` are the same command.
		if strings.HasPrefix(line, ":") {
			line = `\` + line[1:]
		}
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\help`:
			printHelp()
		case line == `\sources`:
			for _, src := range sys.Sources() {
				b := sys.Breakdown(src)
				fmt.Printf("  %-12s base=%d derived(xml=%d latex=%d other=%d) total=%d\n",
					src, b.Base, b.DerivedXML, b.DerivedLatex, b.DerivedOther, b.Total)
			}
		case line == `\sizes`:
			s := sys.Sizes()
			fmt.Printf("  name=%s tuple=%s content=%s group=%s catalog=%s total=%s\n",
				mb(s.Name), mb(s.Tuple), mb(s.Content), mb(s.Group), mb(s.Catalog), mb(s.Total()))
		case line == `\stats`:
			printStats(sys)
		case line == `\history` || strings.HasPrefix(line, `\history `):
			printHistory(sys, logLimit(line, `\history`), false)
		case line == `\slow` || strings.HasPrefix(line, `\slow `):
			printHistory(sys, logLimit(line, `\slow`), true)
		case line == `\health`:
			printHealth(sys)
		case line == `\checkpoint`:
			if err := sys.Checkpoint(); err != nil {
				fmt.Printf("error: %v\n", err)
				continue
			}
			if d := sys.StateDigest(); d != "" {
				fmt.Printf("checkpointed; state digest %s\n", d[:16])
			} else {
				fmt.Println("in-memory dataspace — nothing to checkpoint (run with -data-dir)")
			}
		case line == `\repl`:
			if rep == nil {
				fmt.Println("no replica attached — run with -replica-dir (and -data-dir)")
				continue
			}
			fmt.Printf("  applied LSN %d / leader LSN %d  (lag %d)\n",
				rep.AppliedLSN(), rep.LeaderLSN(), rep.Lag())
			if d := rep.StateDigest(); d != "" {
				fmt.Printf("  replica state digest %s\n", d[:16])
			}
			if d := sys.StateDigest(); d != "" {
				fmt.Printf("  leader  state digest %s\n", d[:16])
			}
		case line == `\catchup`:
			if rep == nil {
				fmt.Println("no replica attached — run with -replica-dir (and -data-dir)")
				continue
			}
			before := rep.AppliedLSN()
			start := time.Now()
			if err := rep.CatchUp(); err != nil {
				fmt.Printf("error: %v\n", err)
				continue
			}
			fmt.Printf("applied %d record(s) in %v; now at LSN %d (lag %d)\n",
				rep.AppliedLSN()-before, time.Since(start).Round(time.Microsecond),
				rep.AppliedLSN(), rep.Lag())
		case strings.HasPrefix(line, `\rquery `):
			if rep == nil {
				fmt.Println("no replica attached — run with -replica-dir (and -data-dir)")
				continue
			}
			runReplicaQuery(rep, strings.TrimPrefix(line, `\rquery `), limit)
		case strings.HasPrefix(line, `\explain `):
			out, err := sys.Explain(strings.TrimPrefix(line, `\explain `))
			if err != nil {
				fmt.Printf("error: %v\n", err)
				continue
			}
			fmt.Print(out)
		case strings.HasPrefix(line, `\plan `):
			q := strings.TrimPrefix(line, `\plan `)
			res, err := sys.Query(q)
			if err != nil {
				fmt.Printf("error: %v\n", err)
				continue
			}
			fmt.Println(res.Plan)
		case strings.HasPrefix(line, `\rank `):
			q := strings.TrimPrefix(line, `\rank `)
			res, err := sys.QueryRanked(q)
			if err != nil {
				fmt.Printf("error: %v\n", err)
				continue
			}
			fmt.Printf("%d results (ranked)\n", res.Count())
			for i, row := range res.Rows {
				if i >= limit {
					break
				}
				fmt.Printf("  %6.0f  %s\n", res.Scores[i], row[0].Path)
			}
		case strings.HasPrefix(line, `\lineage `):
			q := strings.TrimPrefix(line, `\lineage `)
			res, err := sys.Query(q)
			if err != nil || res.Count() == 0 {
				fmt.Printf("error: %v (%d results)\n", err, res.Count())
				continue
			}
			steps, err := sys.Lineage(res.Items[0].OID)
			if err != nil {
				fmt.Printf("error: %v\n", err)
				continue
			}
			for _, s := range steps {
				name := s.Name
				if name == "" {
					name = "(" + s.Class + ")"
				}
				fmt.Printf("  %-24s %s\n", s.Relation, name)
			}
		case line == `\changes`:
			changes := sys.Changes(0)
			start := 0
			if len(changes) > limit {
				start = len(changes) - limit
				fmt.Printf("  ... %d earlier changes\n", start)
			}
			for _, c := range changes[start:] {
				fmt.Printf("  v%-4d %-8s %s %s\n", c.Version, c.Kind, c.Source, c.URI)
			}
		case strings.HasPrefix(line, `\delete `):
			stmt := "delete " + strings.TrimPrefix(line, `\delete `)
			n, err := sys.Delete(stmt)
			if err != nil {
				fmt.Printf("deleted %d; error: %v\n", n, err)
				continue
			}
			fmt.Printf("deleted %d item(s)\n", n)
		case strings.HasPrefix(line, `\`):
			fmt.Printf("unknown command %q — \\help lists commands\n", line)
		default:
			if strings.HasPrefix(strings.ToLower(line), "delete ") {
				n, err := sys.Delete(line)
				if err != nil {
					fmt.Printf("deleted %d; error: %v\n", n, err)
					continue
				}
				fmt.Printf("deleted %d item(s)\n", n)
				continue
			}
			runQuery(sys, line, limit)
		}
	}
}

// printStats renders the session's metrics snapshot: query and cache
// counters, latency percentiles, and per-layer activity.
func printStats(sys *idm.System) {
	snap := sys.Metrics().Snapshot()
	if h, ok := snap.Histograms["idm_query_ns"]; ok && h.Count > 0 {
		fmt.Printf("queries: %d  mean %v  p50 %v  p90 %v  max %v\n",
			h.Count,
			time.Duration(h.Mean()).Round(time.Microsecond),
			time.Duration(h.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.9)).Round(time.Microsecond),
			time.Duration(h.Max).Round(time.Microsecond))
	} else {
		fmt.Println("queries: none yet")
	}
	cs := sys.CacheStats()
	fmt.Printf("cache:   %d hits / %d misses (size %d, evictions %d)\n",
		cs.Hits, cs.Misses, cs.Size, cs.Evictions)
	if cs.Hits > 0 || cs.Misses > 0 {
		fmt.Printf("         hit %v vs miss %v; entry age avg %v, oldest %v\n",
			cs.HitLatency.Round(time.Microsecond), cs.MissLatency.Round(time.Microsecond),
			cs.AvgEntryAge.Round(time.Millisecond), cs.OldestEntryAge.Round(time.Millisecond))
	}
	fmt.Println("counters:")
	for _, name := range snap.CounterNames() {
		if v := snap.Counters[name]; v != 0 {
			fmt.Printf("  %-40s %d\n", name, v)
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Println("gauges:")
		for _, name := range snap.GaugeNames() {
			fmt.Printf("  %-40s %d\n", name, snap.Gauges[name])
		}
	}
}

// logLimit parses the optional [n] argument of \history and \slow.
func logLimit(line, cmd string) int {
	arg := strings.TrimSpace(strings.TrimPrefix(line, cmd))
	if arg == "" {
		return 10
	}
	n := 0
	if _, err := fmt.Sscanf(arg, "%d", &n); err != nil || n <= 0 {
		return 10
	}
	return n
}

// printHistory renders the query log's recent (or slow) ring, newest
// first: latency, outcome and the per-query resource accounting. Slow
// records additionally print their retained trace.
func printHistory(sys *idm.System, n int, slow bool) {
	l := sys.QueryLog()
	if l == nil {
		fmt.Println("query log disabled (run without -query-log -1)")
		return
	}
	recs := l.Recent(n)
	kind := "queries"
	total := l.Total()
	if slow {
		recs = l.Slow(n)
		kind = fmt.Sprintf("slow queries (≥ %v)", l.SlowThreshold())
		total = l.SlowTotal()
	}
	if len(recs) == 0 {
		fmt.Printf("no %s recorded\n", kind)
		return
	}
	fmt.Printf("%d of %d %s, newest first:\n", len(recs), total, kind)
	for _, r := range recs {
		flags := ""
		if r.CacheHit {
			flags += " cache-hit"
		}
		if r.Stale {
			flags += " stale"
		}
		if r.Slow {
			flags += " SLOW"
		}
		outcome := fmt.Sprintf("%d rows", r.Rows)
		if r.Error != "" {
			outcome = "error: " + r.Error
		}
		fmt.Printf("  #%-4d %-10v %-24s %s%s\n", r.ID,
			time.Duration(r.DurationNs).Round(time.Microsecond), outcome, r.Query, flags)
		if r.Error == "" {
			fmt.Printf("        scanned=%d postings=%d expanded=%d frontier=%d idx=%d strategy=%s\n",
				r.Stats.RowsScanned, r.Stats.PostingsRead, r.Stats.ViewsExpanded,
				r.Stats.PeakFrontier, r.Stats.IndexAccesses, r.Strategy)
		}
		if slow && r.Trace != "" {
			for _, ln := range strings.Split(strings.TrimRight(r.Trace, "\n"), "\n") {
				fmt.Printf("        %s\n", ln)
			}
		}
	}
}

// printHealth renders per-source degradation status: last sync outcome,
// consecutive failures and the circuit-breaker state (when -resilient).
func printHealth(sys *idm.System) {
	hs := sys.Health()
	if len(hs) == 0 {
		fmt.Println("no sources registered")
		return
	}
	for _, h := range hs {
		state := "ok"
		if h.Degraded {
			state = fmt.Sprintf("DEGRADED (%d consecutive failures): %s", h.ConsecutiveFailures, h.LastError)
		}
		breaker := ""
		if h.Breaker != "" {
			breaker = "  breaker=" + h.Breaker
		}
		last := "never"
		if !h.LastSuccess.IsZero() {
			last = time.Since(h.LastSuccess).Round(time.Millisecond).String() + " ago"
		}
		fmt.Printf("  %-12s %s%s  last success %s\n", h.Source, state, breaker, last)
	}
}

func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}

func printHelp() {
	fmt.Print(`commands (: works like \):
  \sources         per-source resource view breakdown (Table 2)
  \sizes           index and replica sizes (Table 3)
  \plan <query>    show the planner notes for a query
  \explain <query> evaluate with tracing and print the span tree
  \stats           session metrics and query-cache statistics
  \history [n]     recent queries from the query log (latency + stats)
  \slow [n]        slow queries (≥ -slow-query) with their trace renders
  \health          per-source degradation and circuit-breaker status
  \rank <query>    evaluate with tf-ranked results
  \lineage <query> provenance chain of the first result
  \changes         tail of the dataspace change journal
  \delete <query>  write-through delete (also: delete <query>)
  \checkpoint      compact the durable store into a fresh snapshot
  \repl            replication status: applied/leader LSN, lag, digests
  \catchup         pull the attached replica up to the leader's LSN
  \rquery <query>  evaluate on the read replica (stale answers are flagged)
  \quit            exit
example queries (Table 4 of the paper):
  "database"
  "database tuning"
  [size > 4200 and lastmodified < @12.06.2005]
  //papers//*Vision/*["Franklin"]
  //VLDB200?//?onclusion*/*["systems"]
  union( //VLDB2005//*["documents"], //VLDB2006//*["documents"])
  join( //VLDB2006//*[class="texref"] as A, //VLDB2006//figure*[class="environment"] as B, A.name=B.tuple.label)
  join( //*[class="emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )
`)
}

func mb(b int64) string { return fmt.Sprintf("%.2fMB", float64(b)/(1<<20)) }
