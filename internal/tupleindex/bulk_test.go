package tupleindex

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
)

// TestBuilderMatchesIncremental differentially pins the bulk build
// against the incremental path, including a re-added document (which
// the builder routes through the replace path).
func TestBuilderMatchesIncremental(t *testing.T) {
	feed := func(add func(DocID, core.TupleComponent)) {
		add(1, fsTC(100, day(1)))
		add(3, fsTC(500000, day(12)))
		add(2, fsTC(42000, day(10)))
		add(4, fsTC(420001, day(20)))
		add(3, fsTC(77, day(3))) // re-add replaces
	}
	inc := New()
	feed(inc.Add)
	b := NewBuilder()
	feed(b.Add)
	built := b.Build()

	if got, want := built.DocCount(), inc.DocCount(); got != want {
		t.Fatalf("DocCount %d, want %d", got, want)
	}
	if got, want := built.Attributes(), inc.Attributes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Attributes %v, want %v", got, want)
	}
	probes := []struct {
		attr  string
		op    Op
		value core.Value
	}{
		{"size", GT, core.Int(0)},
		{"size", LE, core.Int(42000)},
		{"size", EQ, core.Int(77)},
		{"size", EQ, core.Int(500000)}, // superseded value must be gone
		{"lastmodified", LT, core.Time(day(12))},
		{"owner", EQ, core.String("x")},
	}
	for _, p := range probes {
		if got, want := built.Query(p.attr, p.op, p.value), inc.Query(p.attr, p.op, p.value); !reflect.DeepEqual(got, want) {
			t.Errorf("Query(%s %s %v) = %v, want %v", p.attr, p.op, p.value, got, want)
		}
	}
	for _, doc := range []DocID{1, 2, 3, 4, 9} {
		gt, gok := built.Tuple(doc)
		wt, wok := inc.Tuple(doc)
		if gok != wok || !reflect.DeepEqual(gt, wt) {
			t.Errorf("Tuple(%d) = (%v,%v), want (%v,%v)", doc, gt, gok, wt, wok)
		}
	}
}

// TestColumnOrderMatchesSliceStable pins ensureSorted's order to the
// sort.SliceStable sort it replaced, entry for entry, on random columns
// that mix value kinds (int, float, string, time, bool, null). The
// column comparator is not transitive across kinds, so only the same
// algorithm yields the same order.
func TestColumnOrderMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	value := func() core.Value {
		switch rng.Intn(6) {
		case 0:
			return core.Int(int64(rng.Intn(20) - 10))
		case 1:
			return core.Float(float64(rng.Intn(40))/4 - 5)
		case 2:
			return core.String(string(rune('a' + rng.Intn(5))))
		case 3:
			return core.Time(day(rng.Intn(5)))
		case 4:
			return core.Bool(rng.Intn(2) == 0)
		default:
			return core.Null()
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		entries := make([]entry, n)
		for i := range entries {
			entries[i] = entry{value: value(), doc: DocID(rng.Intn(n + 1))}
		}
		want := slices.Clone(entries)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if c, err := core.Compare(a.value, b.value); err == nil {
				if c != 0 {
					return c < 0
				}
				return a.doc < b.doc
			}
			if a.value.Kind != b.value.Kind {
				return a.value.Kind < b.value.Kind
			}
			return a.doc < b.doc
		})
		col := &column{entries: entries}
		col.ensureSorted()
		if !reflect.DeepEqual(col.entries, want) {
			t.Fatalf("trial %d (%d entries): ensureSorted order differs from sort.SliceStable", trial, n)
		}
	}
}
