package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the outcome for one (workload, metric) pair.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // run-to-run spread wider than the bound
)

// judge applies a metric's bound to the old and new runs' values. The
// medians are compared; when either side's interquartile spread exceeds
// the bound the pair is unresolved rather than unchanged, and a gain
// counts only when it exceeds the old side's own spread.
func judge(def metricDef, old, new []float64) (verdict, float64) {
	mo, mn := median(old), median(new)
	if mo == 0 {
		return unresolved, 0
	}
	change := (mn - mo) / mo // positive = grew
	if def.Better == "higher" {
		change = -change
	}
	// change is now the share by which the metric got worse.
	switch {
	case spread(old) > def.Bound || spread(new) > def.Bound:
		return unresolved, change
	case change > def.Bound:
		return worse, change
	case change < 0 && -change > spread(old):
		return better, change
	}
	return within, change
}

// readResults loads the untraced results of a JSON-lines file, grouped
// by workload then metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s stamped
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if s.Trace != 0 || s.Report == nil {
			continue
		}
		if out[s.Workload] == nil {
			out[s.Workload] = map[string][]float64{}
		}
		for name, v := range s.Report.Metrics {
			out[s.Workload][name] = append(out[s.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per (workload, end-to-end metric) and
// reports whether any pair got worse.
func compareFiles(oldPath, newPath string, w io.Writer) (anyWorse bool, err error) {
	old, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-28s %12s %12s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			o, n := old[wl.name][def.Name], new[wl.name][def.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v, change := judge(def, o, n)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-14s %-28s %12.4f %12.4f %+7.1f%% %6.0f%%  %s (n=%d/%d)\n",
				wl.name, def.Name, median(o), median(n), change*100, def.Bound*100, v, len(o), len(n))
		}
	}
	return anyWorse, nil
}
