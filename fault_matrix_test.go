package idm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	idm "repro"
	"repro/internal/fault"
	"repro/internal/iql"
	"repro/internal/rss"
	"repro/internal/sources"
)

// faultFS builds a filesystem-backed system with a fault injector and an
// optional resilience policy wired in.
func faultFS(t *testing.T, cfg idm.Config, preIndex ...idm.FaultRule) (*idm.System, *idm.FaultInjector) {
	t.Helper()
	inj := idm.NewFaultInjector(1)
	for _, r := range preIndex {
		inj.Add(r)
	}
	cfg.Now = fixedNow
	cfg.Faults = inj
	fs := idm.NewFileSystem()
	fs.MkdirAll("/docs")
	fs.WriteFile("/docs/paper.tex", []byte(`\section{Introduction} dataspace vision text`))
	fs.WriteFile("/docs/notes.txt", []byte("resilient keyword content"))
	sys := idm.Open(cfg)
	if err := sys.AddFileSystem("fs", fs); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	return sys, inj
}

// TestFaultMatrix drives every fault kind through every built-in plugin
// family and checks the system's contract for each: root errors degrade
// the source but never corrupt the replica; read and convert faults are
// contained to the affected view; latency faults only slow the sync.
func TestFaultMatrix(t *testing.T) {
	t.Run("fs", func(t *testing.T) {
		cases := []struct {
			name string
			rule idm.FaultRule
			// wantSyncErr: the re-sync must fail and the source degrade.
			wantSyncErr bool
			// preIndex injects the rule before the first Index instead of
			// before a re-sync (read faults only matter while content is
			// first indexed; an unchanged view is not re-read).
			preIndex bool
			// query → wantCount after the faulty sync round.
			query     string
			wantCount int
		}{
			{name: "error@root", rule: idm.FaultRule{Point: "fs/root", Kind: idm.FaultError, Times: 1},
				wantSyncErr: true, query: `"resilient keyword"`, wantCount: 1},
			{name: "latency@root", rule: idm.FaultRule{Point: "fs/root", Kind: idm.FaultLatency, Latency: time.Millisecond, Times: 1},
				query: `"resilient keyword"`, wantCount: 1},
			// A partial read drops the file's content from the index but
			// must not fail the sync or touch other views.
			{name: "partial@read", rule: idm.FaultRule{Point: "fs/read", Kind: idm.FaultPartialRead, Fraction: 0.3},
				preIndex: true, query: `"resilient keyword"`, wantCount: 0},
			// Corrupted converter input must not crash the converter or
			// the sync; the structural views may be lost, the base file
			// stays indexed.
			{name: "corrupt@convert", rule: idm.FaultRule{Point: "fs/convert", Kind: idm.FaultCorrupt, Fraction: 0.4},
				query: `//paper.tex`, wantCount: 1},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				var sys *idm.System
				var inj *idm.FaultInjector
				var err error
				if tc.preIndex {
					sys, inj = faultFS(t, idm.Config{}, tc.rule)
				} else {
					sys, inj = faultFS(t, idm.Config{})
					inj.Add(tc.rule)
					_, err = sys.Manager().SyncSource("fs")
				}
				if tc.wantSyncErr {
					if err == nil {
						t.Fatal("faulty sync succeeded")
					}
					if !idm.IsFaultInjected(err) {
						t.Fatalf("error lost the injected sentinel: %v", err)
					}
					if got := sys.DegradedSources(); len(got) != 1 || got[0] != "fs" {
						t.Fatalf("DegradedSources = %v", got)
					}
				} else if err != nil {
					t.Fatalf("sync: %v", err)
				}
				res, err := sys.Query(tc.query)
				if err != nil {
					t.Fatalf("query after fault: %v", err)
				}
				if res.Count() != tc.wantCount {
					t.Fatalf("%q = %d rows, want %d", tc.query, res.Count(), tc.wantCount)
				}
				if inj.FiredTotal() == 0 {
					t.Fatal("rule never fired")
				}
			})
		}
	})

	t.Run("mail", func(t *testing.T) {
		for _, point := range []string{"mail/root", "mail/fetch"} {
			t.Run("error@"+point, func(t *testing.T) {
				inj := idm.NewFaultInjector(1)
				store := idm.NewMailStore()
				store.Append(&idm.MailMessage{Folder: "INBOX", Subject: "hello", Body: "mail body words"})
				sys := idm.Open(idm.Config{Now: fixedNow, Faults: inj})
				if err := sys.AddMail("mail", store); err != nil {
					t.Fatal(err)
				}
				inj.Add(idm.FaultRule{Point: point, Kind: idm.FaultError, Times: 1})
				_, err := sys.Index()
				if point == "mail/root" && err == nil {
					t.Fatal("root fault not surfaced")
				}
				// Recovery: the one-shot rule is spent; message views are
				// rebuilt lazily on the next sync.
				if _, err := sys.Manager().SyncSource("mail"); err != nil {
					t.Fatalf("recovery sync: %v", err)
				}
			})
		}
	})

	t.Run("rel", func(t *testing.T) {
		inj := idm.NewFaultInjector(1)
		db := idm.NewRelDB("persdb")
		sys := idm.Open(idm.Config{Now: fixedNow, Faults: inj})
		if err := sys.AddRelational("rel", db); err != nil {
			t.Fatal(err)
		}
		inj.Add(idm.FaultRule{Point: "rel/root", Kind: idm.FaultError, Times: 1})
		if _, err := sys.Index(); err == nil {
			t.Fatal("root fault not surfaced")
		}
		if _, err := sys.Manager().SyncSource("rel"); err != nil {
			t.Fatalf("recovery sync: %v", err)
		}
	})

	t.Run("rss", func(t *testing.T) {
		inj := idm.NewFaultInjector(1)
		srv := idm.NewRSSServer()
		srv.Publish("news", rss.Item{Title: "headline", Description: "feed words"})
		sys := idm.Open(idm.Config{Now: fixedNow, Faults: inj})
		if err := sys.AddRSS("rss", srv, 0); err != nil {
			t.Fatal(err)
		}
		inj.Add(idm.FaultRule{Point: "rss/root", Kind: idm.FaultError, Times: 1})
		if _, err := sys.Index(); err == nil {
			t.Fatal("root fault not surfaced")
		}
		if _, err := sys.Manager().SyncSource("rss"); err != nil {
			t.Fatalf("recovery sync: %v", err)
		}
	})
}

// TestSourceDownServesStaleResults is the issue's acceptance scenario:
// with a source forced down, a keyword query still returns results —
// flagged stale — and the retries and breaker trip show up in the
// metrics registry.
func TestSourceDownServesStaleResults(t *testing.T) {
	sys, inj := faultFS(t, idm.Config{
		Resilience: &idm.ResiliencePolicy{
			MaxRetries:      2,
			RetryBase:       time.Microsecond,
			BreakerFailures: 1,
			BreakerCooldown: time.Hour,
			Sleep:           func(time.Duration) {},
		},
	})
	// Force the source down for every future root call.
	inj.Add(idm.FaultRule{Point: "fs/root", Kind: idm.FaultError})
	if _, err := sys.Manager().SyncSource("fs"); err == nil {
		t.Fatal("sync of a downed source succeeded")
	}

	res, err := sys.Query(`"resilient keyword"`)
	if err != nil {
		t.Fatalf("degraded query errored: %v", err)
	}
	if res.Count() != 1 {
		t.Fatalf("stale rows = %d, want 1", res.Count())
	}
	if !res.Stale || len(res.StaleSources) != 1 || res.StaleSources[0] != "fs" {
		t.Fatalf("Stale = %v, StaleSources = %v", res.Stale, res.StaleSources)
	}
	if !strings.Contains(res.Plan, "degraded sources") {
		t.Errorf("plan does not note the degradation: %q", res.Plan)
	}

	snap := sys.Metrics().Snapshot()
	if snap.Counters["source_fs_retries_total"] != 2 {
		t.Errorf("retries_total = %d, want 2", snap.Counters["source_fs_retries_total"])
	}
	if snap.Counters["source_fs_breaker_opens_total"] == 0 {
		t.Error("breaker never opened")
	}
	if snap.Gauges["source_fs_breaker_state"] != int64(sources.BreakerOpen) {
		t.Errorf("breaker_state gauge = %d", snap.Gauges["source_fs_breaker_state"])
	}
	if snap.Counters["idm_stale_queries_total"] == 0 {
		t.Error("idm_stale_queries_total not incremented")
	}
	if snap.Counters["rvm_sync_errors_total"] == 0 {
		t.Error("rvm_sync_errors_total not incremented")
	}
	if h := sys.Health(); len(h) != 1 || !h[0].Degraded || h[0].Breaker != "open" {
		t.Fatalf("health = %+v", h)
	}

	// Recovery: lift the fault, wait out the breaker via a fresh sync
	// after cooldown is irrelevant here — clear the rules and re-open
	// the breaker path by resetting the injector; the half-open probe
	// happens after cooldown, which we shortcut by a direct reset.
	inj.Reset()
}

// TestFailClosedPolicy pins the strict degradation mode at every read
// entry point: while a source is down each one rejects with ErrDegraded
// (counting the query), and after recovery each answers again.
func TestFailClosedPolicy(t *testing.T) {
	const q = `"resilient keyword"`
	// Each read reports its row count and Stale flag.
	reads := []struct {
		name string
		read func(*idm.System) (int, bool, error)
	}{
		{"Query", func(s *idm.System) (int, bool, error) {
			r, err := s.Query(q)
			if err != nil {
				return 0, false, err
			}
			return r.Count(), r.Stale, nil
		}},
		{"QueryPage", func(s *idm.System) (int, bool, error) {
			p, err := s.QueryPage(q, nil, 0)
			if err != nil {
				return 0, false, err
			}
			return len(p.Rows), p.Stale, nil
		}},
		{"QueryWith", func(s *idm.System) (int, bool, error) {
			r, err := s.QueryWith(q, idm.Backward)
			if err != nil {
				return 0, false, err
			}
			return r.Count(), r.Stale, nil
		}},
		{"QueryRanked", func(s *idm.System) (int, bool, error) {
			r, err := s.QueryRanked(q)
			if err != nil {
				return 0, false, err
			}
			return r.Count(), r.Stale, nil
		}},
		{"Trace", func(s *idm.System) (int, bool, error) {
			r, _, err := s.Trace(q)
			if err != nil {
				return 0, false, err
			}
			return r.Count(), r.Stale, nil
		}},
	}
	for _, rd := range reads {
		t.Run(rd.name, func(t *testing.T) {
			sys, inj := faultFS(t, idm.Config{DegradedReads: idm.FailClosed})
			inj.Add(idm.FaultRule{Point: "fs/root", Kind: idm.FaultError, Times: 1})
			if _, err := sys.Manager().SyncSource("fs"); err == nil {
				t.Fatal("faulty sync succeeded")
			}
			queries := func() int64 { return sys.Metrics().Snapshot().Counters["idm_queries_total"] }
			before := queries()
			if _, _, err := rd.read(sys); !errors.Is(err, idm.ErrDegraded) {
				t.Fatalf("err = %v, want ErrDegraded", err)
			}
			if got := queries() - before; got != 1 {
				t.Errorf("idm_queries_total rose by %d for a rejected read, want 1", got)
			}
			if _, err := sys.Manager().SyncSource("fs"); err != nil {
				t.Fatalf("recovery sync: %v", err)
			}
			n, stale, err := rd.read(sys)
			if err != nil || n != 1 || stale {
				t.Fatalf("post-recovery: err=%v rows=%d stale=%v", err, n, stale)
			}
		})
	}
}

// TestStaleResultsBypassCache checks the cache never launders away the
// Stale flag: a result cached while healthy must not be served unflagged
// during degradation.
func TestStaleResultsBypassCache(t *testing.T) {
	sys, inj := faultFS(t, idm.Config{})
	// Prime the cache while healthy.
	if res, err := sys.Query(`"resilient keyword"`); err != nil || res.Stale {
		t.Fatalf("healthy query: %v %+v", err, res)
	}
	inj.Add(idm.FaultRule{Point: "fs/root", Kind: idm.FaultError, Times: 1})
	if _, err := sys.Manager().SyncSource("fs"); err == nil {
		t.Fatal("faulty sync succeeded")
	}
	res, err := sys.Query(`"resilient keyword"`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stale {
		t.Fatal("cached result served without the Stale flag during degradation")
	}
}

// TestDifferentialUnderFaults runs grammar-generated queries against a
// degraded live system, asserting serial and parallel evaluation still
// agree while stale replicas are being served.
func TestDifferentialUnderFaults(t *testing.T) {
	sys, inj := faultFS(t, idm.Config{})
	inj.Add(idm.FaultRule{Point: "fs/root", Kind: idm.FaultError})
	if _, err := sys.Manager().SyncSource("fs"); err == nil {
		t.Fatal("sync of downed source succeeded")
	}
	vocab := iql.Vocab{
		Names:     []string{"fs", "docs", "paper.tex", "notes.txt", "Introduction"},
		Phrases:   []string{"dataspace vision", "resilient keyword", "section"},
		Classes:   []string{"folder", "file", "latexfile", "latex_section"},
		IntAttrs:  []string{"size"},
		DateAttrs: []string{"lastmodified"},
	}
	g := iql.NewGen(3, vocab)
	serial := iql.NewEngine(sys.Manager(), iql.Options{Now: fixedNow, Parallelism: 1})
	parallel := iql.NewEngine(sys.Manager(), iql.Options{Now: fixedNow, Parallelism: 8})
	for i := 0; i < 300; i++ {
		q := g.Query()
		rs, errS := serial.Query(q)
		rp, errP := parallel.Query(q)
		if (errS == nil) != (errP == nil) {
			t.Fatalf("gen %d %q: serial err %v, parallel err %v", i, q, errS, errP)
		}
		if errS != nil {
			continue
		}
		a, b := rs.OIDs(), rp.OIDs()
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("gen %d %q: %v vs %v", i, q, a, b)
		}
		if len(rs.Plan.StaleSources) != 1 || rs.Plan.StaleSources[0] != "fs" {
			t.Fatalf("gen %d %q: StaleSources = %v", i, q, rs.Plan.StaleSources)
		}
	}
}

// TestRemoveSourceInvalidatesCache pins the unregister path: the removal
// bumps the dataspace version, so no cached result is servable any more
// and the cache is emptied; the source's views leave the indexes; a
// removal that fails leaves the cache alone.
func TestRemoveSourceInvalidatesCache(t *testing.T) {
	fsA := idm.NewFileSystem()
	fsA.MkdirAll("/a")
	fsA.WriteFile("/a/keep.txt", []byte("alpha content stays"))
	fsB := idm.NewFileSystem()
	fsB.MkdirAll("/b")
	fsB.WriteFile("/b/gone.txt", []byte("beta content leaves"))
	sys := idm.Open(idm.Config{Now: fixedNow})
	if err := sys.AddFileSystem("a", fsA); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddFileSystem("b", fsB); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	if res, _ := sys.Query(`"alpha content"`); res.Count() != 1 {
		t.Fatal("setup a")
	}
	if res, _ := sys.Query(`"beta content"`); res.Count() != 1 {
		t.Fatal("setup b")
	}
	if st := sys.CacheStats(); st.Size != 2 {
		t.Fatalf("cache size = %d, want 2", st.Size)
	}

	if err := sys.RemoveSource("b"); err != nil {
		t.Fatal(err)
	}
	st := sys.CacheStats()
	if st.Size != 0 {
		t.Fatalf("cache size after removal = %d, want 0", st.Size)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	res, err := sys.Query(`"beta content"`)
	if err != nil || res.Count() != 0 {
		t.Fatalf("removed source still answers: %v (%d)", err, res.Count())
	}
	if res, _ := sys.Query(`"alpha content"`); res.Count() != 1 {
		t.Fatal("surviving source lost")
	}
	if got := sys.Sources(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("sources = %v", got)
	}
	if err := sys.RemoveSource("b"); err == nil {
		t.Fatal("double removal not rejected")
	}
	if st := sys.CacheStats(); st.Size != 2 {
		t.Fatalf("cache size after rejected removal = %d, want 2", st.Size)
	}
}

// TestResilienceAbsorbsTransientFaults: with retries configured, a
// transient root failure never surfaces to Index at all.
func TestResilienceAbsorbsTransientFaults(t *testing.T) {
	sys, inj := faultFS(t, idm.Config{
		Resilience: &idm.ResiliencePolicy{
			MaxRetries:      3,
			RetryBase:       time.Microsecond,
			BreakerFailures: -1,
			Sleep:           func(time.Duration) {},
		},
	})
	inj.Add(idm.FaultRule{Point: "fs/root", Kind: idm.FaultError, Times: 2})
	if _, err := sys.Manager().SyncSource("fs"); err != nil {
		t.Fatalf("transient faults surfaced through retries: %v", err)
	}
	if got := sys.DegradedSources(); len(got) != 0 {
		t.Fatalf("DegradedSources = %v", got)
	}
	if sys.Metrics().Snapshot().Counters["source_fs_retries_total"] != 2 {
		t.Error("retries not recorded")
	}
}

// TestParseFaultRuleRoundTrip covers the -fault flag's spec format at
// the facade level.
func TestParseFaultRuleRoundTrip(t *testing.T) {
	r, err := idm.ParseFaultRule("fs/root:error:0.5:3")
	if err != nil {
		t.Fatal(err)
	}
	if r.Point != "fs/root" || r.Kind != idm.FaultError || r.P != 0.5 || r.Times != 3 {
		t.Fatalf("rule = %+v", r)
	}
	if _, err := idm.ParseFaultRule("fs/root:latency@5ms"); err != nil {
		t.Fatal(err)
	}
	if _, err := idm.ParseFaultRule("nonsense:kind"); err == nil {
		t.Fatal("bad kind accepted")
	}
	_ = fault.Error // the internal package stays importable for tests
}
