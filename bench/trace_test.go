package main

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

// Whatever times the depths measure, the self times of a ladder are
// differences of them that cancel in pairs: they must add up to the
// depth-0 time, for every op kind's tree.
func TestLadderSelfTimesTelescopeToDepthZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range ladderKinds {
		tree := ladders[k]
		var agg ladderAgg
		for op := 0; op < 100; op++ {
			sp := spans{}
			tree.each(func(n *node) {
				// A cache hit leaves the deeper layers out of the op entirely.
				if n == tree || rng.Intn(4) > 0 {
					sp[n.layer] = time.Duration(rng.Intn(1_000_000))
				}
			})
			agg.add(sp)
		}
		self, depth0 := agg.selfs(tree)
		sum, layers := 0.0, 0
		tree.each(func(n *node) { sum += self[n.layer]; layers++ })
		if len(self) != layers {
			t.Errorf("%s: %d self times for %d layers", k, len(self), layers)
		}
		if math.Abs(sum-depth0) > 1e-6*depth0 {
			t.Errorf("%s: layers sum to %.3f us, depth 0 is %.3f us", k, sum, depth0)
		}
		if want := us(agg.sum[tree.layer]) / 100; math.Abs(depth0-want) > 1e-9 {
			t.Errorf("%s: depth 0 = %v, want the outermost layer's mean %v", k, depth0, want)
		}
	}
}

func TestLadderShapes(t *testing.T) {
	var order []string
	ladders[kColdOpen].each(func(n *node) { order = append(order, n.layer) })
	want := []string{"http", "server", "idm", "storage", "catalog", "rvm", "textindex", "tupleindex"}
	if len(order) != len(want) {
		t.Fatalf("cold_open ladder visits %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("cold_open ladder visits %v, want %v", order, want)
		}
	}
	if d := ladders[kQuery].deepest(); d.layer != "textindex" {
		t.Errorf("query ladder bottoms out at %s, want textindex", d.layer)
	}
}

// BENCHMARK.json is generated from the metric tables; a name added to
// one and not the other would make the driver reject every run.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if string(onDisk) != string(manifest()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
