package idm_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/iql"
)

// Cardinality-accuracy bounds. Estimates are upper bounds built from
// index metadata, so the two directions have different contracts:
//
//   - Over-estimation is expected (a wildcard-name step carries no
//     index constraint and estimates at the full view count) but must
//     stay within a fixed symmetric ratio, so gross estimator
//     regressions fail loudly.
//   - Under-estimation must not happen at all for join-free queries —
//     every result of a path/predicate/union matches the estimated
//     constraint set. Joins may legitimately exceed their bound
//     (many-to-many fan-out), within a factor.
const (
	accuracyOverBound      = 512.0
	accuracyJoinUnderBound = 16.0
)

// estRatio is the smoothed ratio a/b; the +8 smoothing keeps tiny
// cardinalities (est 20 vs actual 1) from reading as gross errors.
func estRatio(a, b int64) float64 { return float64(a+8) / float64(b+8) }

// hasJoinNode reports whether the query contains a join anywhere (the
// only node whose result can exceed its cardinality estimate).
func hasJoinNode(q iql.Query) bool {
	switch x := q.(type) {
	case *iql.JoinQuery:
		return true
	case *iql.UnionQuery:
		for _, a := range x.Args {
			if hasJoinNode(a) {
				return true
			}
		}
	}
	return false
}

type estSample struct {
	query    string
	est      int64
	actual   int64
	severity float64
	reason   string
}

// TestPlannerCardinalityAccuracy runs the 8 paper queries plus 200
// grammar-generated queries on the evaluation dataset with automatic
// expansion and checks every recorded row estimate against the
// actual result cardinality. On failure it prints the worst offenders,
// most severe first.
func TestPlannerCardinalityAccuracy(t *testing.T) {
	s, err := experiments.NewSetup(0.05, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Index(); err != nil {
		t.Fatal(err)
	}
	e := s.EngineWith(iql.AutoExpansion, 1)

	var queries []string
	for _, q := range experiments.PaperQueries() {
		queries = append(queries, q.IQL)
	}
	g := iql.NewGen(20060912, iql.DefaultVocab())
	for len(queries) < 8+200 {
		queries = append(queries, g.Query())
	}

	var offenders []estSample
	evaluated := 0
	for _, q := range queries {
		res, err := e.Query(q)
		if err != nil {
			// Generated queries may legitimately exceed the expansion
			// budget; accuracy is only defined for completed runs.
			continue
		}
		evaluated++
		est := res.Plan.EstimatedRows
		if est < 0 {
			t.Fatalf("run of %q recorded a negative estimate", q)
		}
		actual := int64(res.Count())
		ast, err := iql.ParseWith(q, iql.ParseOptions{Now: experiments.Clock})
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		joinQuery := hasJoinNode(ast)
		switch {
		case estRatio(est, actual) > accuracyOverBound:
			offenders = append(offenders, estSample{q, est, actual, estRatio(est, actual),
				fmt.Sprintf("over-estimate beyond %gx", accuracyOverBound)})
		case !joinQuery && actual > est:
			offenders = append(offenders, estSample{q, est, actual, estRatio(actual, est),
				"under-estimate on a join-free query (estimate must be an upper bound)"})
		case joinQuery && estRatio(actual, est) > accuracyJoinUnderBound:
			offenders = append(offenders, estSample{q, est, actual, estRatio(actual, est),
				fmt.Sprintf("join under-estimate beyond %gx", accuracyJoinUnderBound)})
		}
	}
	if evaluated < len(queries)*9/10 {
		t.Fatalf("only %d/%d queries evaluated cleanly; accuracy sample too small", evaluated, len(queries))
	}
	if len(offenders) > 0 {
		sort.Slice(offenders, func(i, j int) bool { return offenders[i].severity > offenders[j].severity })
		if len(offenders) > 10 {
			offenders = offenders[:10]
		}
		for _, o := range offenders {
			t.Errorf("estimate %d, actual %d (severity %.1fx): %s\n  query: %s",
				o.est, o.actual, o.severity, o.reason, o.query)
		}
		t.Fatalf("%d cardinality estimates out of bounds (worst above)", len(offenders))
	}
}
