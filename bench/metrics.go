package main

import (
	"encoding/json"
	"fmt"
)

// metricDef is one row of BENCHMARK.json; per-layer metrics have no
// bound and omit the key.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures.
const runSeconds = 18

// endToEnd is what a user of imemexd waits for or pays for. Every
// workload reports every one; where a workload's own streams lack an
// op kind, a short probe after the measured phases supplies it. The
// bounds are the regression gates later changes are judged by.
//
// Every timing carries the largest bound BENCHMARK.json allows. On the
// two-vCPU virtual machine the benchmark was written on, ten runs of one
// commit spread (interquartile, as a share of the median) by 4–15% in
// quiet stretches and by 20–40% when the host was busy; no choice of
// estimator changed that, so a tighter bound would only turn the host's
// noise into verdicts. -compare reports such pairs as unresolved.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"store_bytes_per_user_byte", "ratio", "lower", 0.05},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_throughput_rps", "1/s", "higher", 0.25},
	{"query_join_p50_ms", "ms", "lower", 0.25},
	{"page_walk_p50_ms", "ms", "lower", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"ingest_files_per_s", "1/s", "higher", 0.25},
	{"cold_open_p50_ms", "ms", "lower", 0.25},
}

// ladders names, per op kind, the layer tree the traced run times: each
// node's inclusive time is measured by calling that layer directly, and
// its self time is that minus its children's, so the selfs of a tree
// sum to the depth-0 time exactly.
var ladders = map[kind]*node{
	kQuery:  chain("http", "server", "idm", "iql", "rvm").leaves("textindex", "tupleindex"),
	kPage:   chain("http", "server", "idm"),
	kIngest: chain("http", "server", "rvm").leaves("storage", "textindex", "tupleindex"),
	kColdOpen: chain("http", "server", "idm").with(
		&node{layer: "storage"}, &node{layer: "catalog"},
		(&node{layer: "rvm"}).leaves("textindex", "tupleindex")),
}

// ladderKinds fixes the report order.
var ladderKinds = []kind{kQuery, kPage, kIngest, kColdOpen}

// perLayer lists the traced run's metrics: the ladder self times, then
// the counts and ratios read at the same boundaries.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	add("loadgen.late_p95_ms", "ms", "lower")
	add("loadgen.sent", "count", "higher")
	for _, k := range ladderKinds {
		add(fmt.Sprintf("ladder.depth0_us.%s", k), "us", "lower")
		ladders[k].each(func(n *node) { add(fmt.Sprintf("%s.self_us.%s", n.layer, k), "us", "lower") })
	}
	add("http.resp_bytes_per_op", "bytes", "lower")
	add("http.query_p95_ms", "ms", "lower")
	add("http.query_p99_ms", "ms", "lower")
	add("http.query_p999_ms", "ms", "lower")
	add("http.ingest_p95_ms", "ms", "lower")
	add("http.cold_open_p90_ms", "ms", "lower")
	add("server.rows_examined_per_row", "ratio", "lower")
	add("server.requests", "count", "lower")
	add("server.throttled", "count", "lower")
	add("server.tenant_opens", "count", "lower")
	add("server.tenant_evictions", "count", "lower")
	add("idm.cache_hit_ratio", "ratio", "higher")
	add("idm.cache_evictions", "count", "lower")
	add("iql.parse_us", "us", "lower")
	for f := family(0); f < numFamilies; f++ {
		add("iql.exec_us."+f.String(), "us", "lower")
	}
	add("iql.rows_scanned_per_row", "ratio", "lower")
	add("iql.postings_read_per_row", "ratio", "lower")
	add("iql.views_expanded_per_row", "ratio", "lower")
	add("iql.estimate_ratio_p50", "ratio", "lower")
	add("iql.rows_per_query", "count", "lower")
	add("rvm.lookup_us.phrase", "us", "lower")
	add("rvm.lookup_us.tuple", "us", "lower")
	add("rvm.lookup_us.name", "us", "lower")
	add("rvm.sync_us_per_view", "us", "lower")
	add("rvm.restore_ms", "ms", "lower")
	add("textindex.add_us_per_doc", "us", "lower")
	add("textindex.phrase_us", "us", "lower")
	add("tupleindex.query_us", "us", "lower")
	add("catalog.rebuild_ms", "ms", "lower")
	add("storage.append_us_per_record", "us", "lower")
	add("storage.wal_bytes_per_user_byte", "ratio", "lower")
	add("storage.checkpoint_ms", "ms", "lower")
	add("storage.open_ms.wal_replay", "ms", "lower")
	add("storage.open_ms.snapshot", "ms", "lower")
	add("storage.open_ms.compact", "ms", "lower")
	add("storage.records_replayed", "count", "lower")
	add("storage.close_ms", "ms", "lower")
	add("trace.overhead_pct", "%", "lower")
	return out
}

// manifest renders BENCHMARK.json from the tables above, so the file
// and the code cannot name different metrics.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(b, '\n')
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill turns measured numbers into the report's metric map, in the
// units the manifest declares; a metric the run did not measure is an
// error, not a silent zero.
func fill(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}
