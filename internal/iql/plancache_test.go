package iql

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

// versionedFake gives fakeStore the dataspace-version surface the
// engine's plan cache invalidates on.
type versionedFake struct {
	*fakeStore
	v uint64
}

func (s *versionedFake) Version() uint64 { return s.v }

func newVersionedFake() *versionedFake {
	return &versionedFake{fakeStore: newFakeStore(), v: 1}
}

// TestPlannerPlanCacheEstimateInvalidation pins the cache contract:
// estimates are reused while the dataspace version stands still and
// re-derived as soon as it moves.
func TestPlannerPlanCacheEstimateInvalidation(t *testing.T) {
	s := newVersionedFake()
	s.add(1, "a.txt", "textdocument", "alpha beta", core.TupleComponent{})
	s.add(2, "b.txt", "textdocument", "alpha", core.TupleComponent{})
	e := NewEngine(s, Options{Parallelism: 1})

	const src = `"alpha"`
	res, err := e.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Plan.EstimatedRows
	if first != 2 {
		t.Fatalf("initial estimate = %d, want 2", first)
	}
	if _, ok := e.plans.parsedFor(src); !ok {
		t.Fatal("clock-independent parse was not cached")
	}

	// Same version: new data is invisible to the cached estimate (the
	// store's statistics would see it, but the cache answers first).
	s.add(3, "c.txt", "textdocument", "alpha gamma", core.TupleComponent{})
	res, err = e.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.EstimatedRows != first {
		t.Fatalf("estimate changed without a version bump: %d -> %d", first, res.Plan.EstimatedRows)
	}

	// Version moved: the estimate must be re-derived.
	s.v++
	res, err = e.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.EstimatedRows != 3 {
		t.Fatalf("estimate after version bump = %d, want 3", res.Plan.EstimatedRows)
	}
}

// TestPlannerPlanCacheClockDependentParse verifies queries whose parse
// consulted the clock are re-parsed every call, while clock-independent
// ones are cached.
func TestPlannerPlanCacheClockDependentParse(t *testing.T) {
	s := newVersionedFake()
	s.add(1, "a.txt", "textdocument", "alpha", core.TupleComponent{})
	e := NewEngine(s, Options{Parallelism: 1})

	clocked := `[lastmodified < today()]`
	if _, err := e.Query(clocked); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.plans.parsedFor(clocked); ok {
		t.Fatal("clock-dependent parse must not be cached")
	}

	absolute := `[lastmodified < @12.06.2005]`
	if _, err := e.Query(absolute); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.plans.parsedFor(absolute); !ok {
		t.Fatal("absolute-date parse should be cached")
	}
}

// TestPlannerPlanCacheUnversionedStore verifies a store without a
// Version surface disables estimate reuse (estimates could never be
// invalidated) but keeps parse caching, and that repeated queries stay
// correct.
func TestPlannerPlanCacheUnversionedStore(t *testing.T) {
	s := newFakeStore()
	s.add(1, "a.txt", "textdocument", "alpha", core.TupleComponent{})
	e := NewEngine(s, Options{Parallelism: 1})

	const src = `"alpha"`
	for i := 0; i < 2; i++ {
		res, err := e.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() != 1 || res.Rows[0][0] != catalog.OID(1) {
			t.Fatalf("run %d: got %d rows", i, res.Count())
		}
	}
	e.plans.mu.RLock()
	defer e.plans.mu.RUnlock()
	if len(e.plans.est) != 0 {
		t.Fatalf("estimate cache populated without a version surface: %d entries", len(e.plans.est))
	}
	if len(e.plans.parsed) == 0 {
		t.Fatal("parse cache empty")
	}
}
