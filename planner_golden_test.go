package idm_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/iql"
)

// TestPlannerChoicesGolden pins the planner's decisions — the
// chosen strategy, the row estimate, and every "planner:" note — for
// the eight paper queries over the deterministic evaluation dataspace.
// The goldens make cost-model changes reviewable: recalibrating a
// constant or refining an estimator shows up as a strategy or cost
// diff, not as an unexplained benchmark swing. Run
// `go test -run TestPlannerChoicesGolden -update .` after deliberate
// cost-model changes and eyeball the diff.
func TestPlannerChoicesGolden(t *testing.T) {
	s, err := experiments.NewSetup(0.05, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Index(); err != nil {
		t.Fatal(err)
	}
	e := s.EngineWith(iql.AutoExpansion, 1)
	for _, q := range experiments.PaperQueries() {
		t.Run(q.ID, func(t *testing.T) {
			res, err := e.Query(q.IQL)
			if err != nil {
				t.Fatalf("query %s: %v", q.ID, err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "query: %s\n", q.IQL)
			fmt.Fprintf(&b, "strategy: %s\n", res.Plan.Strategy)
			fmt.Fprintf(&b, "estimated rows: %d\n", res.Plan.EstimatedRows)
			for _, n := range res.Plan.Notes {
				if strings.HasPrefix(n, "planner:") {
					fmt.Fprintf(&b, "%s\n", n)
				}
			}
			got := b.String()
			path := filepath.Join("testdata", "planner", q.ID+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("planner choices drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
