package main

import "testing"

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "query_throughput_rps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 75, 125, 90, 110, 100}
	for _, c := range []struct {
		name     string
		def      metricDef
		old, new []float64
		want     verdict
	}{
		{"same", lower, steady, steady, within},
		{"slower inside the bound", lower, steady, scale(steady, 1.08), within},
		{"slower beyond the bound", lower, steady, scale(steady, 1.15), worse},
		{"faster beyond its own spread", lower, steady, scale(steady, 0.9), better},
		{"less throughput beyond the bound", higher, steady, scale(steady, 0.85), worse},
		{"more throughput", higher, steady, scale(steady, 1.2), better},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.3), unresolved},
	} {
		if got, _ := judge(c.def, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
