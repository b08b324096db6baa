package iql

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
)

// differentialStore builds a vocabulary-aligned dataspace large enough
// that the parallel evaluator actually fans out (frontiers well beyond
// parThreshold). Names, classes, phrases, labels and tuple attributes
// all come from DefaultVocab so generated queries hit real index paths.
func differentialStore(seed int64, n int) *fakeStore {
	rng := rand.New(rand.NewSource(seed))
	v := DefaultVocab()
	sizes := []int64{0, 1, 1024, 4096, 42000, 50000}
	f := newFakeStore()
	f.add(1, "root", core.ClassFolder, "", core.EmptyTuple())
	level := []catalog.OID{1}
	next := catalog.OID(2)
	for int(next) <= n && len(level) > 0 {
		var nl []catalog.OID
		for _, p := range level {
			fan := 2 + rng.Intn(7)
			for i := 0; i < fan && int(next) <= n; i++ {
				name := v.Names[rng.Intn(len(v.Names))]
				if rng.Intn(2) == 0 {
					name = fmt.Sprintf("%s-%d", name, next)
				}
				class := v.Classes[rng.Intn(len(v.Classes))]
				content := ""
				for w := 0; w < rng.Intn(3); w++ {
					content += v.Phrases[rng.Intn(len(v.Phrases))] + " "
				}
				tc := core.EmptyTuple()
				switch rng.Intn(3) {
				case 0:
					tc = core.TupleComponent{
						Schema: core.FSSchema,
						Tuple: core.Tuple{core.Int(sizes[rng.Intn(len(sizes))]),
							core.Time(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)),
							core.Time(time.Date(2005, 6, 1+rng.Intn(28), 0, 0, 0, 0, time.UTC))},
					}
				case 1:
					tc = core.TupleComponent{
						Schema: core.Schema{{Name: "label", Domain: core.DomainString}},
						Tuple:  core.Tuple{core.String(v.Names[rng.Intn(len(v.Names))])},
					}
				}
				parents := []catalog.OID{p}
				// Occasional extra parent turns the tree into a DAG.
				if next > 3 && rng.Intn(6) == 0 {
					parents = append(parents, catalog.OID(1+rng.Int63n(int64(next-1))))
				}
				f.add(next, name, class, content, tc, parents...)
				nl = append(nl, next)
				next++
			}
		}
		level = nl
	}
	return f
}

// diffLanes labels the two execution lanes the differential property
// compares with naiveEval: serial (Parallelism 1) and parallel
// (Parallelism 8 with PlannerProcs 4, so parallel plans stay reachable
// on machines with fewer cores). Callers zero the work crossover
// (forceFanOut), so the parallel lane fans out every stage with
// parThreshold items.
var diffLanes = [2]string{"serial", "parallel"}

// diffEngines builds both lanes for every expansion strategy over f.
func diffEngines(f *fakeStore) map[string][2]*Engine {
	out := make(map[string][2]*Engine)
	for name, exp := range map[string]Expansion{
		"forward": ForwardExpansion, "backward": BackwardExpansion, "auto": AutoExpansion,
	} {
		out[name] = [2]*Engine{
			NewEngine(f, Options{Expansion: exp, Now: fixedNow, Parallelism: 1}),
			NewEngine(f, Options{Expansion: exp, Now: fixedNow, Parallelism: 8, PlannerProcs: 4}),
		}
	}
	return out
}

// diffOne runs q on every lane and fails unless each returns exactly
// the oracle's rows. It reports whether the parallel lane fanned out.
func diffOne(t *testing.T, label, q string, want [][]catalog.OID, lanes [2]*Engine) (parallel bool) {
	t.Helper()
	for i, e := range lanes {
		r, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s %s: %q: %v", label, diffLanes[i], q, err)
		}
		if !sameRows(r.Rows, want) {
			t.Fatalf("%s %s: %q: rows diverge from naiveEval:\nengine: %v\nnaive:  %v",
				label, diffLanes[i], q, r.Rows, want)
		}
		if i == 1 {
			parallel = r.Plan.ParallelStages > 0
		}
	}
	return parallel
}

// sameRows compares row sets exactly, treating nil and empty alike.
func sameRows(a, b [][]catalog.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// diffQuery parses a generated query and evaluates it with naiveEval.
func diffQuery(t *testing.T, q string, f *fakeStore) [][]catalog.OID {
	t.Helper()
	ast, err := ParseWith(q, ParseOptions{Now: fixedNow})
	if err != nil {
		t.Fatalf("generated query does not parse: %q: %v", q, err)
	}
	return naiveEval(f, ast)
}

// TestDifferentialSerialParallel is the differential acceptance
// property: 1000 seeded grammar-driven query generations must return
// exactly naiveEval's rows under serial and parallel execution for
// every expansion strategy, on a store wide enough to trigger real
// worker fan-out. At least half of the parallel executions must
// actually fan out (about three quarters do), so a lane that quietly
// runs serial fails.
func TestDifferentialSerialParallel(t *testing.T) {
	forceFanOut(t)
	generations := 1000
	if testing.Short() {
		generations = 100
	}
	f := differentialStore(99, 1500)
	engines := diffEngines(f)
	g := NewGen(2006, DefaultVocab())
	runs, fanned := 0, 0
	for i := 0; i < generations; i++ {
		q := g.Query()
		want := diffQuery(t, q, f)
		for name, lanes := range engines {
			runs++
			if diffOne(t, fmt.Sprintf("gen %d %s", i, name), q, want, lanes) {
				fanned++
			}
		}
	}
	t.Logf("parallel lane fanned out on %d of %d executions", fanned, runs)
	if fanned*2 < runs {
		t.Fatalf("parallel lane fanned out on %d of %d executions, want at least half", fanned, runs)
	}
}

// TestGenProducesParseableQueries pins the generator to the grammar:
// every generated query must parse, and must survive the parse∘render
// fixpoint the parser fuzzer enforces.
func TestGenProducesParseableQueries(t *testing.T) {
	g := NewGen(7, DefaultVocab())
	for i := 0; i < 500; i++ {
		q := g.Query()
		ast, err := ParseWith(q, ParseOptions{Now: fixedNow})
		if err != nil {
			t.Fatalf("generated query %d does not parse: %q: %v", i, q, err)
		}
		if _, err := ParseWith(ast.String(), ParseOptions{Now: fixedNow}); err != nil {
			t.Fatalf("rendering of generated query %d does not re-parse: %q: %v", i, ast.String(), err)
		}
	}
}

// TestGenCoversGrammar checks the generator actually reaches every
// production, so the differential suite is not silently narrow.
func TestGenCoversGrammar(t *testing.T) {
	g := NewGen(11, DefaultVocab())
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		q := g.Query()
		ast, err := ParseWith(q, ParseOptions{Now: fixedNow})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		switch ast.(type) {
		case *PathQuery:
			seen["path"] = true
		case *PredQuery:
			seen["pred"] = true
		case *UnionQuery:
			seen["union"] = true
		case *JoinQuery:
			seen["join"] = true
		}
	}
	for _, kind := range []string{"path", "pred", "union", "join"} {
		if !seen[kind] {
			t.Errorf("generator never produced a %s query", kind)
		}
	}
}

// FuzzDifferential drives the differential property with Go native
// fuzzing: each input seeds the grammar generator, and the resulting
// queries must return naiveEval's rows under serial and parallel
// execution with all three expansion strategies. Seed corpus:
// testdata/fuzz/FuzzDifferential.
func FuzzDifferential(f *testing.F) {
	forceFanOut(f)
	for _, seed := range []int64{0, 1, 42, 2006, 1 << 40, 7_2026, 424243} {
		f.Add(seed)
	}
	store := differentialStore(99, 400)
	engines := diffEngines(store)
	f.Fuzz(func(t *testing.T, seed int64) {
		g := NewGen(seed, DefaultVocab())
		for i := 0; i < 3; i++ {
			q := g.Query()
			want := diffQuery(t, q, store)
			for name, lanes := range engines {
				diffOne(t, fmt.Sprintf("seed %d gen %d %s", seed, i, name), q, want, lanes)
			}
		}
	})
}
