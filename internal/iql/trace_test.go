package iql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

func TestQueryTracedSpanTree(t *testing.T) {
	f := paperStore()
	e := NewEngine(f, Options{Expansion: ForwardExpansion, Now: fixedNow, Parallelism: 1})
	// The NOT conjunct has no exact index answer, so step 1 keeps its
	// residual filter.
	res, tr, err := e.QueryTraced(`//Introduction["Franklin" and not class="figure"]//[class="texref"]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 1 {
		t.Fatalf("rows = %d, want 1", res.Count())
	}
	root := tr.Root()
	for _, stage := range []string{"parse", "plan", "eval"} {
		if root.Find(stage) == nil {
			t.Errorf("trace missing %q stage:\n%s", stage, tr.Render())
		}
	}
	if root.FindPrefix("forward expansion") == nil {
		t.Errorf("trace missing forward expansion span:\n%s", tr.Render())
	}
	if root.FindPrefix("step 2") == nil {
		t.Errorf("trace missing step span:\n%s", tr.Render())
	}
	if root.FindPrefix("residual filter") == nil {
		t.Errorf("trace missing residual filter span:\n%s", tr.Render())
	}
	out := tr.Render()
	if !strings.Contains(out, `query //Introduction["Franklin" and not class="figure"]//[class="texref"]`) {
		t.Errorf("render missing query name:\n%s", out)
	}
}

func TestQueryTracedStrategyChoice(t *testing.T) {
	f := paperStore()
	e := NewEngine(f, Options{Expansion: AutoExpansion, Now: fixedNow, Parallelism: 1})
	_, tr, err := e.QueryTraced(`//Introduction["Franklin"]//[class="texref"]`)
	if err != nil {
		t.Fatal(err)
	}
	cs := tr.Root().FindPrefix("strategy choice")
	if cs == nil {
		t.Fatalf("trace missing strategy choice span:\n%s", tr.Render())
	}
	var chosen string
	for _, a := range cs.Attrs() {
		if a.Key == "chosen" {
			chosen = a.Value
		}
	}
	if chosen != "forward" && chosen != "backward" {
		t.Errorf("strategy choice chose %q", chosen)
	}
}

// flatStore builds a flat dataspace wide enough (>= parThreshold
// candidates) that data-parallel stages actually fan out.
func flatStore(n int) *fakeStore {
	f := newFakeStore()
	f.add(1, "root", core.ClassFolder, "", core.EmptyTuple())
	for i := 0; i < n; i++ {
		f.add(catalog.OID(2+i), fmt.Sprintf("doc%03d", i), core.ClassLatexSection,
			"wide blob content", core.EmptyTuple(), 1)
	}
	return f
}

// TestQueryTracedWorkerSpans forces fan-out and checks that sharded
// stages record one span per worker: the residual filter of a step no
// index answers exactly, and an expansion level with a wide frontier.
func TestQueryTracedWorkerSpans(t *testing.T) {
	forceFanOut(t)
	f := flatStore(4 * parThreshold)
	e := NewEngine(f, Options{Expansion: ForwardExpansion, Now: fixedNow, Parallelism: 4, PlannerProcs: 4})
	for _, tc := range []struct{ q, stage string }{
		{`//doc*[ "blob" or "wide" ]`, "residual filter"},
		{`//root//*`, "level 2"},
	} {
		res, tr, err := e.QueryTraced(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() != 4*parThreshold {
			t.Fatalf("%s: rows = %d, want %d", tc.q, res.Count(), 4*parThreshold)
		}
		if res.Plan.ParallelStages == 0 {
			t.Errorf("%s: no stage fanned out", tc.q)
		}
		sp := tr.Root().FindPrefix(tc.stage)
		if sp == nil {
			t.Fatalf("%s: trace missing %s span:\n%s", tc.q, tc.stage, tr.Render())
		}
		workers := 0
		for _, c := range sp.Children() {
			if strings.HasPrefix(c.Name(), "worker ") {
				workers++
			}
		}
		if workers < 2 {
			t.Errorf("%s: %s recorded %d worker spans, want >= 2:\n%s", tc.q, tc.stage, workers, tr.Render())
		}
	}
}

// TestQueryTracedSerialHasNoWorkerSpans checks that a serial engine
// never fans out, even with the work crossover zeroed.
func TestQueryTracedSerialHasNoWorkerSpans(t *testing.T) {
	forceFanOut(t)
	f := flatStore(4 * parThreshold)
	e := NewEngine(f, Options{Expansion: ForwardExpansion, Now: fixedNow, Parallelism: 1, PlannerProcs: 4})
	for _, q := range []string{`//doc*[ "blob" or "wide" ]`, `//root//*`} {
		_, tr, err := e.QueryTraced(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(tr.Render(), "worker ") {
			t.Errorf("serial query recorded worker spans:\n%s", tr.Render())
		}
	}
}

func TestQueryTracedParseError(t *testing.T) {
	e := NewEngine(paperStore(), Options{Now: fixedNow})
	_, tr, err := e.QueryTraced(`//[unclosed`)
	if err == nil {
		t.Fatal("want parse error")
	}
	ps := tr.Root().Find("parse")
	if ps == nil {
		t.Fatalf("trace missing parse span:\n%s", tr.Render())
	}
	found := false
	for _, a := range ps.Attrs() {
		if a.Key == "error" {
			found = true
		}
	}
	if !found {
		t.Error("parse span missing error attribute")
	}
}

func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	f := paperStore()
	e := NewEngine(f, Options{Now: fixedNow, Metrics: reg})
	if _, err := e.Query(`"Franklin"`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`//[broken`); err == nil {
		t.Fatal("want parse error")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["iql_queries_total"]; got != 2 {
		t.Errorf("iql_queries_total = %d, want 2", got)
	}
	if got := snap.Counters["iql_query_errors_total"]; got != 1 {
		t.Errorf("iql_query_errors_total = %d, want 1", got)
	}
	if snap.Counters["iql_rows_total"] == 0 {
		t.Error("iql_rows_total did not record")
	}
	if snap.Histograms["iql_query_ns"].Count != 1 {
		t.Errorf("iql_query_ns count = %d, want 1", snap.Histograms["iql_query_ns"].Count)
	}
	if snap.Histograms["iql_parse_ns"].Count != 2 {
		t.Errorf("iql_parse_ns count = %d, want 2", snap.Histograms["iql_parse_ns"].Count)
	}
	if snap.Counters["iql_index_accesses_total"] == 0 {
		t.Error("iql_index_accesses_total did not record")
	}
}
