// Command idmbench regenerates the tables and figures of §7 of the iDM
// paper against the synthetic personal dataset and prints them in the
// paper's layout.
//
// Usage:
//
//	idmbench [-exp all|table2|table3|figure5|table4|figure6|iql] [-scale 0.05] [-seed 42] [-runs 5]
//	         [-json BENCH_iql.json] [-parallelism N] [-obsreps 3] [-tenx] [-minspeedup X] [-obsgate]
//
// -json writes the iQL engine microbenchmark (experiments.BenchReport,
// schema_version 6: serial vs parallel, both with automatic expansion,
// with the planner's strategy and estimated-vs-actual rows per query)
// to the given path, including the obs_overhead section that
// compares instrumented vs uninstrumented ns/op across four postures —
// no registry, disabled registry, enabled registry, enabled registry
// plus query log (-obsreps 0 skips it).
// -tenx adds the scale_10x section (the same measurement at 10× -scale).
// -ixreps adds the index_build section: cold-start index construction
// from a recovered durable state at -ixscale (default 1.0, the paper
// shape), per-view incremental insertion vs the counting bulk build.
// -minspeedup fails the run (exit 1) if any query's parallel speedup
// over serial falls below the threshold — the planner regression gate.
// It refuses to run when -parallelism exceeds the machine's CPU count:
// a speedup the hardware cannot back proves nothing.
// -obsgate fails the run if the mean disabled overhead exceeds 2% or
// the mean query-log-enabled overhead exceeds 3% — the observability
// cost gate (opt-in: percent-level bounds need a quiet machine).
//
// See EXPERIMENTS.md for the paper-vs-measured comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/iql"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|table2|table3|figure5|table4|figure6|iql")
	scale := flag.Float64("scale", 0.05, "dataset scale (1.0 = paper shape)")
	seed := flag.Int64("seed", 42, "generator seed")
	runs := flag.Int("runs", 5, "warm-cache repetitions per query (figure 6)")
	expansion := flag.String("expansion", "forward", "path evaluation: forward|backward|auto")
	jsonPath := flag.String("json", "", "write the iQL benchmark report to this path")
	parallelism := flag.Int("parallelism", 0, "engine worker count for the parallel lane of -json (0 = GOMAXPROCS)")
	obsReps := flag.Int("obsreps", 3, "min-of-N repetitions for the obs_overhead section of -json (0 = skip)")
	tenx := flag.Bool("tenx", false, "additionally measure the iQL benchmark at 10x -scale (scale_10x section)")
	ixReps := flag.Int("ixreps", 0, "min-of-N repetitions for the index_build section of -json (0 = skip)")
	ixScale := flag.Float64("ixscale", 1.0, "dataset scale for the index_build section")
	minSpeedup := flag.Float64("minspeedup", 0, "fail unless every query's parallel speedup over serial is at least this (0 = no gate; needs -parallelism <= NumCPU)")
	obsGate := flag.Bool("obsgate", false, "fail unless mean obs overhead is within bounds (disabled <= 2%, query-log <= 3%); needs -obsreps > 0")
	flag.Parse()

	strategy := iql.ForwardExpansion
	switch *expansion {
	case "forward":
	case "backward":
		strategy = iql.BackwardExpansion
	case "auto":
		strategy = iql.AutoExpansion
	default:
		fail(fmt.Errorf("unknown expansion %q", *expansion))
	}

	if *minSpeedup > 0 && *parallelism > runtime.NumCPU() {
		fail(fmt.Errorf("-minspeedup needs -parallelism <= %d (the machine's CPU count), got %d",
			runtime.NumCPU(), *parallelism))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	// Table 3 indexes each source into its own manager; run it first so
	// its timing is undisturbed, then build the shared setup.
	if want("table3") {
		rows, err := experiments.Table3(*scale, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderTable3(rows))
	}
	if want("figure5") {
		rows, err := experiments.Figure5(*scale, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFigure5(rows))
	}
	wantBench := *jsonPath != "" || want("iql")
	if want("table2") || want("table4") || want("figure6") || wantBench {
		s, err := experiments.NewSetup(*scale, *seed, false)
		if err != nil {
			fail(err)
		}
		if err := s.Index(); err != nil {
			fail(err)
		}
		if want("table2") {
			fmt.Println(experiments.RenderTable2(experiments.Table2(s)))
		}
		if want("table4") || want("figure6") {
			rows, err := experiments.RunQueries(s, strategy, *runs)
			if err != nil {
				fail(err)
			}
			if want("table4") {
				fmt.Println(experiments.RenderTable4(rows))
				for _, r := range rows {
					if r.Note != "" {
						fmt.Printf("note (%s): %s\n", r.ID, r.Note)
					}
				}
				fmt.Println()
			}
			if want("figure6") {
				fmt.Println(experiments.RenderFigure6(rows))
			}
		}
		if wantBench {
			rep, err := experiments.BenchIQL(s, *runs, *parallelism)
			if err != nil {
				fail(err)
			}
			printQueries(rep.Queries, rep.Parallelism)
			if *tenx {
				sec, err := experiments.BenchIQLAtScale(*scale*10, *seed, *runs, *parallelism)
				if err != nil {
					fail(err)
				}
				rep.Scale10x = sec
				fmt.Printf("--- scale %g (10x) ---\n", sec.Scale)
				printQueries(sec.Queries, rep.Parallelism)
			}
			if *obsReps > 0 {
				oo, err := experiments.BenchObsOverhead(s, *runs, *obsReps)
				if err != nil {
					fail(err)
				}
				rep.ObsOverhead = oo
				for _, q := range oo.Queries {
					fmt.Printf("%-3s obs baseline %10d ns/op  disabled %+6.2f%%  enabled %+6.2f%%  querylog %+6.2f%%\n",
						q.ID, q.BaselineNsPerOp, q.DisabledOverheadPct, q.EnabledOverheadPct, q.QueryLogOverheadPct)
				}
				fmt.Printf("obs overhead mean: disabled %+.2f%%  enabled %+.2f%%  querylog %+.2f%%\n",
					oo.MeanDisabledOverheadPct, oo.MeanEnabledOverheadPct, oo.MeanQueryLogOverheadPct)
				if *obsGate {
					if err := gateObs(oo); err != nil {
						fail(err)
					}
					fmt.Println("obs gate passed: disabled <= 2%, query-log <= 3%")
				}
			} else if *obsGate {
				fail(fmt.Errorf("-obsgate needs -obsreps > 0"))
			}
			if *ixReps > 0 {
				ib, err := experiments.BenchIndexBuild(*ixScale, *seed, *ixReps)
				if err != nil {
					fail(err)
				}
				rep.IndexBuild = ib
				fmt.Printf("index build (scale %g, %d views): incremental %d ns  bulk %d ns  (%.2fx)\n",
					ib.Scale, ib.Views, ib.IncrementalNs, ib.BulkNs, ib.Speedup)
			}
			if *jsonPath != "" {
				data, err := json.MarshalIndent(rep, "", "  ")
				if err != nil {
					fail(err)
				}
				if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
					fail(err)
				}
				fmt.Printf("wrote %s\n", *jsonPath)
			}
			if *minSpeedup > 0 {
				if err := gateSpeedup(rep, *minSpeedup); err != nil {
					fail(err)
				}
				fmt.Printf("planner gate passed: parallel speedup >= %.2f on every query\n", *minSpeedup)
			}
		}
	}
}

// printQueries prints one line per measured query with its planner
// decision.
func printQueries(queries []experiments.BenchQuery, parallelism int) {
	for _, q := range queries {
		fmt.Printf("%-3s serial %10d ns/op  parallel(%d) %10d ns/op (%.2fx)  plan %s est %d actual %d\n",
			q.ID, q.Serial.NsPerOp, parallelism, q.Parallel.NsPerOp, q.Speedup,
			q.Planner.Strategy, q.Planner.EstimatedRows, q.Planner.ActualRows)
	}
}

// gateSpeedup fails when any query — at the base scale or in the 10×
// section — ran slower at Parallelism N than the given fraction of its
// serial time.
func gateSpeedup(rep *experiments.BenchReport, min float64) error {
	var bad []string
	check := func(label string, queries []experiments.BenchQuery) {
		for _, q := range queries {
			if q.Speedup < min {
				bad = append(bad, fmt.Sprintf("%s%s %.2fx", label, q.ID, q.Speedup))
			}
		}
	}
	check("", rep.Queries)
	if rep.Scale10x != nil {
		check("10x:", rep.Scale10x.Queries)
	}
	if len(bad) > 0 {
		return fmt.Errorf("parallel speedup below %.2f: %v", min, bad)
	}
	return nil
}

// gateObs enforces the observability cost bounds on the measured means:
// instruments wired but disabled must stay within 2% of the
// uninstrumented baseline, and the full posture — enabled registry plus
// query-log recording — within 3%.
func gateObs(oo *experiments.ObsOverhead) error {
	if oo.MeanDisabledOverheadPct > 2 {
		return fmt.Errorf("obs gate: mean disabled overhead %.2f%% exceeds 2%%", oo.MeanDisabledOverheadPct)
	}
	if oo.MeanQueryLogOverheadPct > 3 {
		return fmt.Errorf("obs gate: mean query-log overhead %.2f%% exceeds 3%%", oo.MeanQueryLogOverheadPct)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "idmbench:", err)
	os.Exit(1)
}
