package idm_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	idm "repro"
	"repro/internal/obs"
)

// parallelSystem builds a dataspace wide enough (256 sibling documents)
// that the iQL engine's sharded stages pass their parallel threshold,
// so traced queries show per-worker spans. It pins the rule planner:
// these tests exercise forced fan-out regardless of the host's core
// count, which the adaptive planner deliberately refuses on small
// machines.
func parallelSystem(t *testing.T, parallelism int) *idm.System {
	t.Helper()
	fs := idm.NewFileSystem()
	fs.MkdirAll("/docs")
	for i := 0; i < 256; i++ {
		fs.WriteFile(fmt.Sprintf("/docs/doc%03d.txt", i),
			[]byte("wide blob content for shard testing"))
	}
	sys := idm.Open(idm.WithRulePlanner(idm.Config{Now: fixedNow, Parallelism: parallelism}))
	if err := sys.AddFileSystem("filesystem", fs); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSystemTraceSpanTree is the tentpole acceptance check: Trace on a
// parallel system returns the parse → plan → eval span tree with
// per-worker spans for the sharded stages.
func TestSystemTraceSpanTree(t *testing.T) {
	sys := parallelSystem(t, 4)
	res, tr, err := sys.Trace(`//doc*[ "blob" ]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 256 {
		t.Fatalf("result count = %d, want 256", res.Count())
	}
	if tr == nil {
		t.Fatal("Trace returned nil trace")
	}
	out := tr.Render()
	for _, want := range []string{"parse", "plan", "eval", "worker "} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// Explain renders the same evaluation.
	explained, err := sys.Explain(`//doc*[ "blob" ]`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explained, "eval") {
		t.Errorf("Explain missing eval span:\n%s", explained)
	}
}

func TestSystemTraceSerialHasNoWorkerSpans(t *testing.T) {
	sys := parallelSystem(t, 1)
	_, tr, err := sys.Trace(`//doc*[ "blob" ]`)
	if err != nil {
		t.Fatal(err)
	}
	if out := tr.Render(); strings.Contains(out, "worker ") {
		t.Errorf("serial trace has worker spans:\n%s", out)
	}
}

func TestIndexTraced(t *testing.T) {
	fs := idm.NewFileSystem()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/a.txt", []byte("indexed content"))
	sys := idm.Open(idm.Config{Now: fixedNow})
	if err := sys.AddFileSystem("filesystem", fs); err != nil {
		t.Fatal(err)
	}
	rep, tr, err := sys.IndexTraced()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalViews() == 0 {
		t.Fatal("IndexTraced registered no views")
	}
	out := tr.Render()
	for _, want := range []string{"sync filesystem", "views=", "source access="} {
		if !strings.Contains(out, want) {
			t.Errorf("index trace missing %q:\n%s", want, out)
		}
	}
}

// TestSystemMetricsEndToEnd checks that one System call path lights up
// every layer's instruments in the shared registry.
func TestSystemMetricsEndToEnd(t *testing.T) {
	sys := parallelSystem(t, 2)
	for i := 0; i < 2; i++ {
		if _, err := sys.Query(`"blob"`); err != nil {
			t.Fatal(err)
		}
	}
	snap := sys.Metrics().Snapshot()
	if got := snap.Counters["idm_queries_total"]; got != 2 {
		t.Errorf("idm_queries_total = %d, want 2", got)
	}
	if snap.Counters["idm_cache_misses_total"] != 1 || snap.Counters["idm_cache_hits_total"] != 1 {
		t.Errorf("cache counters = %d miss / %d hit, want 1/1",
			snap.Counters["idm_cache_misses_total"], snap.Counters["idm_cache_hits_total"])
	}
	if snap.Histograms["idm_query_ns"].Count != 2 {
		t.Errorf("idm_query_ns count = %d, want 2", snap.Histograms["idm_query_ns"].Count)
	}
	// The cache hit never reached the engine.
	if got := snap.Counters["iql_queries_total"]; got != 1 {
		t.Errorf("iql_queries_total = %d, want 1", got)
	}
	if snap.Counters["rvm_syncs_total"] == 0 {
		t.Error("rvm_syncs_total did not record")
	}
	if snap.Counters["source_filesystem_root_calls_total"] == 0 {
		t.Error("source instruments did not record")
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
}

func TestDisableMetrics(t *testing.T) {
	fs := idm.NewFileSystem()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/a.txt", []byte("quiet content"))
	sys := idm.Open(idm.Config{Now: fixedNow})
	sys.Metrics().SetEnabled(false)
	if err := sys.AddFileSystem("filesystem", fs); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(`"quiet content"`); err != nil {
		t.Fatal(err)
	}
	snap := sys.Metrics().Snapshot()
	for name, v := range snap.Counters {
		if v != 0 {
			t.Errorf("disabled registry recorded %s = %d", name, v)
		}
	}
	// Re-enabling at runtime starts recording without rewiring.
	sys.Metrics().SetEnabled(true)
	if _, err := sys.Query(`"quiet content"`); err != nil {
		t.Fatal(err)
	}
	if sys.Metrics().Snapshot().Counters["idm_queries_total"] != 1 {
		t.Error("re-enabled registry did not record")
	}
}

// TestConcurrentQueriesWithMetricsScrape is the -race gate: parallel
// query evaluation (sharded workers inside each query, several queries
// in flight) while another goroutine continuously snapshots and
// serializes the registry.
func TestConcurrentQueriesWithMetricsScrape(t *testing.T) {
	sys := parallelSystem(t, 4)
	queries := []string{
		`"blob"`,
		`//doc*[ "blob" ]`,
		`//docs/*`,
		`"shard testing"`,
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := sys.Metrics().Snapshot()
			var buf bytes.Buffer
			_ = snap.WriteJSON(&buf)
			_ = sys.CacheStats()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(w+i)%len(queries)]
				if _, err := sys.Query(q); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if i%10 == 0 {
					if _, _, err := sys.Trace(q); err != nil {
						t.Errorf("worker %d trace: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraped
	// Every read entry point counts: 4 workers × 25 Query calls, plus a
	// Trace on each worker's iterations 0, 10 and 20.
	snap := sys.Metrics().Snapshot()
	if snap.Counters["idm_queries_total"] != 4*25+4*3 {
		t.Errorf("idm_queries_total = %d, want %d", snap.Counters["idm_queries_total"], 4*25+4*3)
	}
}

// TestQueryLogFacadeStats checks the per-query resource accounting end
// to end: Result.Stats is populated, the query log retains it, and a
// cache hit is logged as such while keeping the original cost figures.
func TestQueryLogFacadeStats(t *testing.T) {
	sys := parallelSystem(t, 2)
	res, err := sys.Query(`//doc*[ "blob" ]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows != 256 {
		t.Errorf("Stats.Rows = %d, want 256", res.Stats.Rows)
	}
	if res.Stats.ElapsedNs <= 0 {
		t.Error("Stats.ElapsedNs not set")
	}
	if res.Stats.Strategy == "" {
		t.Error("Stats.Strategy not set")
	}
	if res.Stats.PostingsRead == 0 && res.Stats.RowsScanned == 0 {
		t.Errorf("stats show no work done: %+v", res.Stats)
	}
	qlog := sys.QueryLog()
	if qlog == nil {
		t.Fatal("QueryLog() = nil with default config")
	}
	recent := qlog.Recent(1)
	if len(recent) != 1 {
		t.Fatalf("query log retained %d records, want 1", len(recent))
	}
	rec := recent[0]
	if rec.Query != `//doc*[ "blob" ]` || rec.Rows != 256 || rec.CacheHit {
		t.Errorf("logged record = %+v", rec)
	}
	if rec.Stats.PostingsRead != res.Stats.PostingsRead || rec.Stats.RowsScanned != res.Stats.RowsScanned {
		t.Errorf("log stats %+v disagree with result stats %+v", rec.Stats, res.Stats)
	}

	// The same query again is served from the cache and logged as a hit
	// that kept the original cost accounting.
	hit, err := sys.Query(`//doc*[ "blob" ]`)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Stats.CacheHit {
		t.Error("cached result's Stats.CacheHit not set")
	}
	if got := qlog.Total(); got != 2 {
		t.Fatalf("query log total = %d, want 2", got)
	}
	hitRec := qlog.Recent(1)[0]
	if !hitRec.CacheHit {
		t.Errorf("cache hit logged without CacheHit: %+v", hitRec)
	}
	if hitRec.Stats.PostingsRead != rec.Stats.PostingsRead {
		t.Errorf("cache-hit record lost the original stats: %+v", hitRec.Stats)
	}
}

// TestQueryLogSlowTraceCapture checks the slow-query path: with a
// threshold every query clears, the log retains a full trace render;
// a negative threshold keeps the log but disables slow capture; a
// negative log size disables logging entirely.
func TestQueryLogSlowTraceCapture(t *testing.T) {
	fs := idm.NewFileSystem()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/a.txt", []byte("slow capture content"))

	sys := idm.Open(idm.Config{Now: fixedNow, SlowQuery: time.Nanosecond})
	if err := sys.AddFileSystem("filesystem", fs); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(`"slow capture content"`); err != nil {
		t.Fatal(err)
	}
	qlog := sys.QueryLog()
	if got := qlog.SlowTotal(); got != 1 {
		t.Fatalf("SlowTotal = %d, want 1 (threshold 1ns)", got)
	}
	slow := qlog.Slow(1)
	if len(slow) != 1 || !slow[0].Slow {
		t.Fatalf("Slow(1) = %+v", slow)
	}
	for _, want := range []string{"parse", "eval"} {
		if !strings.Contains(slow[0].Trace, want) {
			t.Errorf("slow record's trace missing %q:\n%s", want, slow[0].Trace)
		}
	}

	// SlowQuery < 0: log stays on, slow capture off.
	quiet := idm.Open(idm.Config{Now: fixedNow, SlowQuery: -1})
	quiet.AddFileSystem("filesystem", fs)
	quiet.Index()
	if _, err := quiet.Query(`"slow capture content"`); err != nil {
		t.Fatal(err)
	}
	if quiet.QueryLog().Total() != 1 || quiet.QueryLog().SlowTotal() != 0 {
		t.Errorf("negative SlowQuery: total=%d slow=%d, want 1/0",
			quiet.QueryLog().Total(), quiet.QueryLog().SlowTotal())
	}

	// QueryLogSize < 0: no log at all, queries unaffected.
	off := idm.Open(idm.Config{Now: fixedNow, QueryLogSize: -1})
	off.AddFileSystem("filesystem", fs)
	off.Index()
	if _, err := off.Query(`"slow capture content"`); err != nil {
		t.Fatal(err)
	}
	if off.QueryLog() != nil {
		t.Error("QueryLog() != nil with QueryLogSize -1")
	}
}

// TestDebugSurfaceQueryLogEndpoint checks /debug/queries and the index
// page of the debug mux.
func TestDebugSurfaceQueryLogEndpoint(t *testing.T) {
	sys := parallelSystem(t, 1)
	for _, q := range []string{`"blob"`, `"blob"`, `//docs/*`} {
		if _, err := sys.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(obs.HandlerWith(sys.Metrics(), sys.QueryLog()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/queries?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var snap obs.QueryLogSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/debug/queries JSON invalid: %v", err)
	}
	if !snap.Enabled || snap.Total != 3 {
		t.Errorf("snapshot = enabled %v total %d, want true/3", snap.Enabled, snap.Total)
	}
	if len(snap.Recent) != 2 {
		t.Fatalf("?n=2 returned %d records", len(snap.Recent))
	}
	if snap.Recent[0].ID <= snap.Recent[1].ID {
		t.Errorf("records not newest-first: %d then %d", snap.Recent[0].ID, snap.Recent[1].ID)
	}
	if snap.Recent[0].Query != `//docs/*` {
		t.Errorf("newest record = %q", snap.Recent[0].Query)
	}
	// The middle query was a cache hit; ?n=3 shows it flagged.
	resp3, err := http.Get(srv.URL + "/debug/queries?n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var snap3 obs.QueryLogSnapshot
	if err := json.NewDecoder(resp3.Body).Decode(&snap3); err != nil {
		t.Fatal(err)
	}
	if len(snap3.Recent) != 3 || !snap3.Recent[1].CacheHit {
		t.Errorf("cache hit not flagged in log: %+v", snap3.Recent)
	}

	// Index page links every endpoint.
	home, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer home.Body.Close()
	page, _ := io.ReadAll(home.Body)
	for _, want := range []string{"/debug/metrics", "/debug/metrics/prom", "/debug/queries", "/debug/vars", "/debug/pprof/"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("index page missing %q", want)
		}
	}

	// A mux without a query log reports enabled: false rather than 404.
	bare := httptest.NewServer(obs.Handler(sys.Metrics()))
	defer bare.Close()
	respOff, err := http.Get(bare.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer respOff.Body.Close()
	var off obs.QueryLogSnapshot
	if err := json.NewDecoder(respOff.Body).Decode(&off); err != nil {
		t.Fatal(err)
	}
	if off.Enabled {
		t.Error("logless mux reports an enabled query log")
	}
}

// TestDebugSurfacePromParses scrapes /debug/metrics/prom and parses
// every line of the exposition, validating what a Prometheus scraper
// relies on: the name charset, one TYPE declaration per family,
// cumulative non-decreasing buckets, and le="+Inf" == _count.
func TestDebugSurfacePromParses(t *testing.T) {
	sys := parallelSystem(t, 2)
	if _, err := sys.Query(`"blob"`); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(obs.HandlerWith(sys.Metrics(), sys.QueryLog()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("content type = %q, want %q", ct, obs.PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{le="([^"]+)"\})? (-?\d+)$`)

	types := map[string]string{}    // family -> kind
	samples := map[string]int64{}   // bare sample name -> value
	buckets := map[string][]int64{} // histogram -> finite bucket values in order
	infs := map[string]int64{}      // histogram -> +Inf bucket
	counts := map[string]int64{}    // histogram -> _count
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if m := typeRe.FindStringSubmatch(line); m != nil {
			if _, dup := types[m[1]]; dup {
				t.Fatalf("duplicate TYPE declaration for %s", m[1])
			}
			types[m[1]] = m[2]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		name, le := m[1], m[2]
		v, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && le != "":
			base := strings.TrimSuffix(name, "_bucket")
			if types[base] != "histogram" {
				t.Fatalf("bucket sample %q for undeclared histogram %q", line, base)
			}
			if le == "+Inf" {
				infs[base] = v
			} else {
				if _, err := strconv.ParseInt(le, 10, 64); err != nil {
					t.Fatalf("non-numeric bucket bound in %q", line)
				}
				buckets[base] = append(buckets[base], v)
			}
		case strings.HasSuffix(name, "_sum") && types[strings.TrimSuffix(name, "_sum")] == "histogram":
			// value recorded only for existence
		case strings.HasSuffix(name, "_count") && types[strings.TrimSuffix(name, "_count")] == "histogram":
			counts[strings.TrimSuffix(name, "_count")] = v
		default:
			kind := types[name]
			if kind != "counter" && kind != "gauge" {
				t.Fatalf("sample %q has no TYPE declaration", line)
			}
			samples[name] = v
		}
	}

	for base, kind := range types {
		if kind != "histogram" {
			continue
		}
		var prev int64
		for i, v := range buckets[base] {
			if v < prev {
				t.Errorf("%s buckets not cumulative at index %d: %d < %d", base, i, v, prev)
			}
			prev = v
		}
		inf, ok := infs[base]
		if !ok {
			t.Errorf("%s has no +Inf bucket", base)
		}
		if prev > inf {
			t.Errorf("%s finite buckets (%d) exceed +Inf (%d)", base, prev, inf)
		}
		if inf != counts[base] {
			t.Errorf("%s +Inf bucket %d != _count %d", base, inf, counts[base])
		}
	}

	// Known series from the query above must be present with sane values.
	if samples["idm_queries_total"] < 1 {
		t.Errorf("idm_queries_total = %d, want >= 1", samples["idm_queries_total"])
	}
	if types["idm_query_ns"] != "histogram" || counts["idm_query_ns"] < 1 {
		t.Errorf("idm_query_ns: type %q count %d, want histogram with >= 1 observation",
			types["idm_query_ns"], counts["idm_query_ns"])
	}
}
