package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A tail is quoted only when at least ten samples lie beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{50, 0, false}, {99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// rule the driver applies; the expected values come from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	q1, q3 := quartiles(xs)
	if !near(q1, 10.375) || !near(q3, 13.25) {
		t.Errorf("quartiles = %v, %v; Python gives 10.375, 13.25", q1, q3)
	}
	if got, want := spread(xs), (13.25-10.375)/11.75; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles of two = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
}
