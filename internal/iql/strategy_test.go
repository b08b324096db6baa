package iql

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

// randomStore builds a random directed acyclic-ish graph (occasional
// back edges make cycles) of views with random names, classes and
// content drawn from tiny vocabularies.
func randomStore(rng *rand.Rand, n int) *fakeStore {
	f := newFakeStore()
	names := []string{"alpha", "beta", "gamma", "Introduction", "Conclusion", "papers", "figure"}
	classes := []string{"", core.ClassFolder, core.ClassLatexSection, core.ClassFigure, core.ClassFile}
	words := []string{"database", "systems", "tuning", "franklin", "stream"}
	for i := 1; i <= n; i++ {
		oid := catalog.OID(i)
		name := names[rng.Intn(len(names))]
		class := classes[rng.Intn(len(classes))]
		content := ""
		for w := 0; w < rng.Intn(4); w++ {
			content += words[rng.Intn(len(words))] + " "
		}
		var parents []catalog.OID
		if i > 1 {
			// One or two parents among earlier views (DAG edges).
			parents = append(parents, catalog.OID(1+rng.Intn(i-1)))
			if rng.Intn(3) == 0 {
				parents = append(parents, catalog.OID(1+rng.Intn(i-1)))
			}
		}
		f.add(oid, name, class, content, core.EmptyTuple(), parents...)
		// Occasional back edge → cycle.
		if i > 2 && rng.Intn(8) == 0 {
			from, to := oid, catalog.OID(1+rng.Intn(i-1))
			f.children[from] = append(f.children[from], to)
			f.parents[to] = append(f.parents[to], from)
		}
	}
	return f
}

// randomQuery builds a random path query of 1-3 steps.
func randomQuery(rng *rand.Rand) string {
	steps := 1 + rng.Intn(3)
	patterns := []string{"", "*", "alpha", "Introduction", "?eta", "gam*", "papers"}
	preds := []string{"", `[class="latex_section"]`, `["database"]`, `[class="figure" and "systems"]`, `["franklin" or "tuning"]`}
	q := ""
	for i := 0; i < steps; i++ {
		axis := "//"
		if i > 0 && rng.Intn(3) == 0 {
			axis = "/"
		}
		q += axis + patterns[rng.Intn(len(patterns))] + preds[rng.Intn(len(preds))]
	}
	return q
}

// TestExpansionStrategiesEquivalentOnRandomGraphs is the central
// evaluator property: forward, backward and automatic expansion return
// identical result sets on arbitrary graphs and path queries.
func TestExpansionStrategiesEquivalentOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		f := randomStore(rng, 20+rng.Intn(60))
		q := randomQuery(rng)
		fwd := NewEngine(f, Options{Expansion: ForwardExpansion, Now: fixedNow})
		bwd := NewEngine(f, Options{Expansion: BackwardExpansion, Now: fixedNow})
		auto := NewEngine(f, Options{Expansion: AutoExpansion, Now: fixedNow})

		rf, err := fwd.Query(q)
		if err != nil {
			t.Fatalf("trial %d: forward %q: %v", trial, q, err)
		}
		rb, err := bwd.Query(q)
		if err != nil {
			t.Fatalf("trial %d: backward %q: %v", trial, q, err)
		}
		ra, err := auto.Query(q)
		if err != nil {
			t.Fatalf("trial %d: auto %q: %v", trial, q, err)
		}
		a, b, c := fmt.Sprint(rf.OIDs()), fmt.Sprint(rb.OIDs()), fmt.Sprint(ra.OIDs())
		if a != b || a != c {
			t.Fatalf("trial %d: query %q disagrees:\n forward  %s\n backward %s\n auto     %s",
				trial, q, a, b, c)
		}
	}
}

// TestForwardAgainstNaiveOracle checks forward expansion against a
// brute-force oracle that enumerates ancestor chains directly.
func TestForwardAgainstNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		f := randomStore(rng, 15+rng.Intn(30))
		q := randomQuery(rng)
		parsed, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		pq, ok := parsed.(*PathQuery)
		if !ok {
			continue
		}
		engine := NewEngine(f, Options{Expansion: ForwardExpansion, Now: fixedNow})
		res, err := engine.Query(q)
		if err != nil {
			t.Fatalf("trial %d: %q: %v", trial, q, err)
		}
		got := fmt.Sprint(res.Rows)
		want := fmt.Sprint(naiveEval(f, pq))
		if got != want {
			t.Fatalf("trial %d: query %q: engine %s, oracle %s", trial, q, got, want)
		}
	}
}

// naiveEval is the index-free oracle the differential suites compare
// every engine lane with. It resolves no step through an index
// intersection, elides no residual filter and chooses no strategy:
// every view is tested against every step by the per-view matchStep,
// a union is the set union of its branches and a join is a nested loop
// over fieldKey. It covers every production NewGen emits.
func naiveEval(f *fakeStore, q Query) [][]catalog.OID {
	ctx := newEvalCtx(f, &PlanInfo{}, 1)
	var eval func(q Query) [][]catalog.OID
	eval = func(q Query) [][]catalog.OID {
		switch x := q.(type) {
		case *PredQuery:
			step := Step{Axis: Descendant, Pred: x.Pred}
			var out []catalog.OID
			for _, oid := range f.all {
				if ctx.matchStep(step, oid) {
					out = append(out, oid)
				}
			}
			return singleColumn(out)
		case *PathQuery:
			return singleColumn(naivePath(ctx, f, x))
		case *UnionQuery:
			seen := map[catalog.OID]bool{}
			for _, a := range x.Args {
				for _, row := range eval(a) {
					seen[row[0]] = true
				}
			}
			var out []catalog.OID
			for _, oid := range f.all {
				if seen[oid] {
					out = append(out, oid)
				}
			}
			return singleColumn(out)
		case *JoinQuery:
			keys := func(rows [][]catalog.OID, field FieldRef) ([]catalog.OID, []string) {
				var oids []catalog.OID
				var ks []string
				for _, row := range rows {
					if k, ok := ctx.fieldKey(field, row[0]); ok {
						oids = append(oids, row[0])
						ks = append(ks, k)
					}
				}
				return oids, ks
			}
			lo, lk := keys(eval(x.Left), x.On[0])
			ro, rk := keys(eval(x.Right), x.On[1])
			var out [][]catalog.OID
			for i := range lo {
				for j := range ro {
					if lk[i] == rk[j] {
						out = append(out, []catalog.OID{lo[i], ro[j]})
					}
				}
			}
			return out
		default:
			panic(fmt.Sprintf("naiveEval: unsupported query node %T", q))
		}
	}
	return eval(q)
}

// naivePath evaluates a path query by brute force: for every view,
// check whether some chain of views matching the steps ends at it.
func naivePath(ctx *evalCtx, f *fakeStore, q *PathQuery) []catalog.OID {
	// satisfiable(k, oid): oid matches step k and a valid chain for
	// steps 0..k-1 leads to it.
	memo := make(map[[2]int]bool)
	var satisfiable func(k int, oid catalog.OID) bool
	satisfiable = func(k int, oid catalog.OID) bool {
		key := [2]int{k, int(oid)}
		if v, ok := memo[key]; ok {
			return v
		}
		memo[key] = false // guard against cycles
		if !ctx.matchStep(q.Steps[k], oid) {
			return false
		}
		if k == 0 {
			memo[key] = true
			return true
		}
		// Previous view must be a parent (child axis) or any ancestor
		// (descendant axis) satisfying step k-1.
		var ok bool
		switch q.Steps[k].Axis {
		case Child:
			for _, p := range f.parents[oid] {
				if satisfiable(k-1, p) {
					ok = true
					break
				}
			}
		case Descendant:
			seen := map[catalog.OID]bool{}
			stack := append([]catalog.OID(nil), f.parents[oid]...)
			for len(stack) > 0 && !ok {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[p] {
					continue
				}
				seen[p] = true
				if satisfiable(k-1, p) {
					ok = true
					break
				}
				stack = append(stack, f.parents[p]...)
			}
		}
		memo[key] = ok
		return ok
	}
	var out []catalog.OID
	last := len(q.Steps) - 1
	for _, oid := range f.all {
		if satisfiable(last, oid) {
			out = append(out, oid)
		}
	}
	return out
}
