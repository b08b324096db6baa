package iql

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

// forceFanOut zeroes the planner's work crossover for the rest of the
// test, so every stage with parThreshold items fans out to the
// effective parallelism (Options.PlannerProcs lifts the CPU clamp).
func forceFanOut(t testing.TB) { t.Cleanup(ForceFanOut()) }

// requireSameResult fails unless two results carry byte-identical
// Columns and Rows.
func requireSameResult(t *testing.T, label string, serial, parallel *Result) {
	t.Helper()
	if !reflect.DeepEqual(serial.Columns, parallel.Columns) {
		t.Fatalf("%s: columns diverge: %v vs %v", label, serial.Columns, parallel.Columns)
	}
	if !reflect.DeepEqual(serial.Rows, parallel.Rows) {
		t.Fatalf("%s: rows diverge:\nserial:   %v\nparallel: %v", label, serial.Rows, parallel.Rows)
	}
}

// TestParallelEquivalenceRandom checks that parallel execution returns
// byte-identical rows to serial execution for every expansion strategy
// over random dataspaces and random path queries, with fan-out forced.
// At least a fifth of the parallel executions must fan out (about 28%
// do: single-step queries answered wholly by an index have no stage to
// shard).
func TestParallelEquivalenceRandom(t *testing.T) {
	forceFanOut(t)
	rng := rand.New(rand.NewSource(77))
	runs, fanned := 0, 0
	for trial := 0; trial < 40; trial++ {
		f := randomStore(rng, 200+rng.Intn(400))
		q := randomQuery(rng)
		for _, exp := range []Expansion{ForwardExpansion, BackwardExpansion, AutoExpansion} {
			serialEng := NewEngine(f, Options{Expansion: exp, Now: fixedNow, Parallelism: 1})
			want, err := serialEng.Query(q)
			if err != nil {
				t.Fatalf("trial %d: serial %v: Query(%q): %v", trial, exp, q, err)
			}
			for _, par := range []int{4, 8} {
				eng := NewEngine(f, Options{Expansion: exp, Now: fixedNow, Parallelism: par, PlannerProcs: par})
				got, err := eng.Query(q)
				if err != nil {
					t.Fatalf("trial %d: par=%d %v: Query(%q): %v", trial, par, exp, q, err)
				}
				runs++
				if got.Plan.ParallelStages > 0 {
					fanned++
				}
				requireSameResult(t, fmt.Sprintf("trial %d %v par=%d %q", trial, exp, par, q), want, got)
				if want.Plan.Intermediates != got.Plan.Intermediates {
					t.Fatalf("trial %d %v par=%d %q: intermediates %d vs %d",
						trial, exp, par, q, want.Plan.Intermediates, got.Plan.Intermediates)
				}
			}
		}
	}
	t.Logf("parallel engines fanned out on %d of %d executions", fanned, runs)
	if fanned*5 < runs {
		t.Fatalf("parallel engines fanned out on %d of %d executions, want at least a fifth", fanned, runs)
	}
}

// TestParallelEquivalenceUnionJoin covers the union and join operators,
// whose parallel plans differ structurally from the path case. With
// fan-out forced, every parallel execution runs its branches or join
// inputs concurrently.
func TestParallelEquivalenceUnionJoin(t *testing.T) {
	forceFanOut(t)
	f := paperStore()
	queries := []string{
		`union( //PIM//*["Franklin"], //papers//*["Franklin"] )`,
		`union( //*["Franklin"], //*["Franklin"], //[class="figure"] )`,
		`join( //[class="texref"] as A, //[class="figure"] as B, A.name = B.tuple.label )`,
		`join( //[class="latex_section"] as A, //[class="latex_section"] as B, A.name = B.name )`,
	}
	for _, q := range queries {
		serial := NewEngine(f, Options{Now: fixedNow, Parallelism: 1})
		want, err := serial.Query(q)
		if err != nil {
			t.Fatalf("serial Query(%q): %v", q, err)
		}
		for _, par := range []int{4, 8} {
			eng := NewEngine(f, Options{Now: fixedNow, Parallelism: par, PlannerProcs: par})
			got, err := eng.Query(q)
			if err != nil {
				t.Fatalf("par=%d Query(%q): %v", par, q, err)
			}
			requireSameResult(t, fmt.Sprintf("par=%d %q", par, q), want, got)
			if got.Plan.ParallelStages == 0 {
				t.Fatalf("par=%d %q: no stage fanned out", par, q)
			}
		}
	}
}

// TestConcurrentQueries hammers one engine from many goroutines; run
// with -race to catch shared-state races in the evaluator's memoized
// index lookups and plan counters. Fan-out is forced, so the union and
// join queries (two of five) run their inputs concurrently inside each
// goroutine.
func TestConcurrentQueries(t *testing.T) {
	forceFanOut(t)
	f := paperStore()
	eng := NewEngine(f, Options{Expansion: AutoExpansion, Now: fixedNow, Parallelism: 4, PlannerProcs: 4})
	queries := []string{
		`//root//Introduction`,
		`//*["Franklin"]`,
		`//papers//[class="latex_section" and "Vision"]`,
		`union( //PIM//*["Franklin"], //papers//*["Franklin"] )`,
		`join( //[class="texref"] as A, //[class="figure"] as B, A.name = B.tuple.label )`,
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := eng.Query(q)
		if err != nil {
			t.Fatalf("Query(%q): %v", q, err)
		}
		want[i] = r
		branched := strings.HasPrefix(q, "union") || strings.HasPrefix(q, "join")
		if branched && r.Plan.ParallelStages == 0 {
			t.Fatalf("Query(%q): no stage fanned out", q)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(queries)
				r, err := eng.Query(queries[k])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: Query(%q): %v", g, queries[k], err)
					return
				}
				if !reflect.DeepEqual(r.Rows, want[k].Rows) {
					errs <- fmt.Errorf("goroutine %d: %q rows diverged", g, queries[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// chainStore builds root(1) -> 2 -> ... -> n, so expanding `//root//*`
// forward touches exactly n-1 views.
func chainStore(n int) *fakeStore {
	f := newFakeStore()
	f.add(1, "root", core.ClassFolder, "", core.EmptyTuple())
	for i := 2; i <= n; i++ {
		f.add(catalog.OID(i), fmt.Sprintf("v%d", i), core.ClassFolder, "", core.EmptyTuple(), catalog.OID(i-1))
	}
	return f
}

// TestBudgetBoundary pins the budget semantics: an expansion touching
// exactly Budget views succeeds; one more view fails. (The previous
// implementation rejected the Budget-th view.)
func TestBudgetBoundary(t *testing.T) {
	const n = 7 // expansion below touches views 2..7 = 6 views
	f := chainStore(n)
	for _, par := range []int{1, 8} {
		eng := NewEngine(f, Options{Budget: n - 1, Now: fixedNow, Parallelism: par})
		res, err := eng.Query(`//root//*`)
		if err != nil {
			t.Fatalf("par=%d Budget=%d: %v", par, n-1, err)
		}
		if res.Count() != n-1 {
			t.Fatalf("par=%d: count = %d, want %d", par, res.Count(), n-1)
		}
		eng = NewEngine(f, Options{Budget: n - 2, Now: fixedNow, Parallelism: par})
		if _, err := eng.Query(`//root//*`); err == nil {
			t.Fatalf("par=%d Budget=%d: expected budget error", par, n-2)
		}
	}
}

// TestAutoExpansionSingleResolve verifies the auto strategy resolves
// each anchor step at most once, with no duplicate index work.
func TestAutoExpansionSingleResolve(t *testing.T) {
	f := paperStore()
	auto := NewEngine(f, Options{Expansion: AutoExpansion, Now: fixedNow, Parallelism: 1})
	res, err := auto.Query(`//root//Introduction`)
	if err != nil {
		t.Fatal(err)
	}
	// Whichever direction auto picks, the index-access count must not
	// exceed the chosen strategy's own accesses plus one extra anchor
	// resolution (the first anchor, resolved before a backward choice).
	fwd := NewEngine(f, Options{Expansion: ForwardExpansion, Now: fixedNow, Parallelism: 1})
	fres, err := fwd.Query(`//root//Introduction`)
	if err != nil {
		t.Fatal(err)
	}
	bwd := NewEngine(f, Options{Expansion: BackwardExpansion, Now: fixedNow, Parallelism: 1})
	bres, err := bwd.Query(`//root//Introduction`)
	if err != nil {
		t.Fatal(err)
	}
	max := fres.Plan.IndexAccesses
	if bres.Plan.IndexAccesses > max {
		max = bres.Plan.IndexAccesses
	}
	// One extra resolveStep for the non-chosen anchor, which costs at
	// most two index accesses (name + class); anything above that means
	// a step was resolved twice.
	if res.Plan.IndexAccesses > max+2 {
		t.Errorf("auto expansion index accesses = %d, forward %d, backward %d: anchor resolved twice?",
			res.Plan.IndexAccesses, fres.Plan.IndexAccesses, bres.Plan.IndexAccesses)
	}
}
