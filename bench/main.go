// Command bench is the request-to-disk measurement ladder for imemexd.
//
// It builds and spawns the real cmd/imemexd, drives one of four named
// workloads over HTTP, checks every answer against an in-process
// reference System loaded with the same seeded dataset, and prints
// every metric by name. `-trace 1` replays the same op streams
// in-process at successive depths so that each layer's self time is a
// difference of two measured times and the layers sum to the whole.
// See README.md.
//
//	go run . -workload query_hot                 one untraced run
//	go run . -workload query_cold -trace 1       the per-layer ladder
//	go run . -workload ingest_mixed -sweep       latency at 0.5x..2x the reference rate
//	go run . -compare old.json new.json          judge a change by the bounds
//	go run . -manifest                           print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	// Daemons are spawned with Pdeathsig, which fires when the spawning
	// thread exits; pinning main to the initial thread, which lives as
	// long as the process, makes that mean "when the benchmark exits".
	runtime.LockOSThread()
	// The generator has memory to spare and shares two CPUs with the
	// daemon: collect a quarter as often.
	debug.SetGCPercent(400)
	var (
		name     = flag.String("workload", "", "workload to run: query_hot, query_cold, ingest_mixed, tenant_churn")
		seed     = flag.Int64("seed", 42, "seed for the dataset, the query pools, the op order and the arrival times")
		seconds  = flag.Float64("seconds", runSeconds, "seconds measured")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end run")
		sweep    = flag.Bool("sweep", false, "report latency at 0.5x/1x/1.5x/2x the reference rate and the highest rate meeting the limits (ungated)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		man      = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		out      = flag.String("out", "", "also append the stamped result to this JSON-lines file")
		repo     = flag.String("repo", "", "repository root (default: nearest parent holding cmd/imemexd)")
		buildDir = flag.String("build-dir", "", "directory for binaries and data roots (default <repo>/.bench_build)")
	)
	flag.Parse()

	switch {
	case *man:
		os.Stdout.Write(manifest())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare old.json new.json")
		}
		worse, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	w := findWorkload(*name)
	if w == nil {
		fatal("unknown -workload %q", *name)
	}
	root, err := findRepo(*repo)
	if err != nil {
		fatal("%v", err)
	}
	if *buildDir == "" {
		*buildDir = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(*buildDir, 0o755); err != nil {
		fatal("%v", err)
	}
	opt := options{repo: root, buildDir: *buildDir, seed: *seed, seconds: *seconds, setups: 3}

	if *sweep {
		if err := runSweep(w, opt); err != nil {
			fatal("%v", err)
		}
		return
	}

	var rep *report
	var info runInfo
	if *trace == 1 {
		rep, info, err = runTraced(w, opt)
	} else {
		rep, info, err = runUntraced(w, opt)
	}
	if err != nil {
		fatal("%v", err)
	}
	printHuman(w, rep, info.samples)
	if *out != "" {
		if err := appendResult(*out, stamped{Workload: w.name, Trace: *trace, Env: stamp(opt, w, info), Report: rep, Samples: info.samples, Extras: info.extras}); err != nil {
			fatal("%v", err)
		}
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// findRepo returns dir, or the nearest parent of the working directory
// that holds cmd/imemexd.
func findRepo(dir string) (string, error) {
	if dir != "" {
		return filepath.Abs(dir)
	}
	d, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "cmd", "imemexd", "main.go")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no cmd/imemexd above the working directory; pass -repo")
		}
		d = parent
	}
}

// printHuman lists every metric by name with its unit on standard
// error; the machine-readable line goes to standard output last.
func printHuman(w *workload, rep *report, counts map[string]int) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "workload %s: attempted %d, failed %d, failed_share %.6f\n",
		w.name, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	for _, n := range names {
		v := rep.Metrics[n]
		if c, ok := counts[n]; ok {
			fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-6s (n=%d)\n", n, v.Value, v.Unit, c)
		} else {
			fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", n, v.Value, v.Unit)
		}
	}
}
