// Benchmarks regenerating every table and figure of §7 of the iDM paper
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured comparison):
//
//	BenchmarkTable2_DatasetCharacteristics
//	BenchmarkTable3_IndexSizes
//	BenchmarkFigure5_IndexingTimes
//	BenchmarkTable4_QueryResults
//	BenchmarkFigure6_QueryResponseTimes
//
// plus the ablation benches DESIGN.md calls out and the QueryPage
// benches of the daemon's page path. Run with
//
//	go test -bench=. -benchmem
package idm_test

import (
	"sync"
	"testing"
	"time"

	idm "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/iql"
	"repro/internal/mail"
	"repro/internal/rvm"
	"repro/internal/stream"
)

// benchScale trades fidelity against bench runtime; 0.05 keeps the
// paper's ratios with ~5% of its item counts.
const (
	benchScale = 0.05
	benchSeed  = 42
)

var (
	sharedOnce  sync.Once
	sharedSetup *experiments.Setup
	sharedErr   error
)

// setup returns a shared indexed system (dataset generated once, with
// the IMAP latency model off so query benches are undisturbed).
func setup(b *testing.B) *experiments.Setup {
	b.Helper()
	sharedOnce.Do(func() {
		sharedSetup, sharedErr = experiments.NewSetup(benchScale, benchSeed, false)
		if sharedErr == nil {
			sharedErr = sharedSetup.Index()
		}
	})
	if sharedErr != nil {
		b.Fatal(sharedErr)
	}
	return sharedSetup
}

// BenchmarkTable2_DatasetCharacteristics measures a full indexing pass
// and reports the Table 2 resource view counts as metrics.
func BenchmarkTable2_DatasetCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.NewSetup(benchScale, benchSeed, false)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Index(); err != nil {
			b.Fatal(err)
		}
		rows := experiments.Table2(s)
		total := rows[len(rows)-1]
		b.ReportMetric(float64(total.Base), "base-views")
		b.ReportMetric(float64(total.DerivedTotal), "derived-views")
		b.ReportMetric(float64(total.Total), "total-views")
	}
}

// BenchmarkTable3_IndexSizes measures per-source index construction and
// reports sizes in MB.
func BenchmarkTable3_IndexSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		total := rows[len(rows)-1]
		b.ReportMetric(total.Content, "content-MB")
		b.ReportMetric(total.Total, "total-MB")
		if total.NetInputMB > 0 {
			b.ReportMetric(100*total.Total/total.NetInputMB, "pct-of-net-input")
		}
	}
}

// BenchmarkFigure5_IndexingTimes measures indexing with the IMAP latency
// model on and reports the per-source time split in milliseconds.
func BenchmarkFigure5_IndexingTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			prefix := r.Source + "-"
			b.ReportMetric(ms(r.CatalogInsert), prefix+"catalog-ms")
			b.ReportMetric(ms(r.ComponentIndexing), prefix+"indexing-ms")
			b.ReportMetric(ms(r.DataSourceAccess), prefix+"access-ms")
		}
	}
}

// BenchmarkTable4_QueryResults runs each evaluation query once per
// iteration and reports its result count.
func BenchmarkTable4_QueryResults(b *testing.B) {
	s := setup(b)
	for _, q := range experiments.PaperQueries() {
		q := q
		b.Run(q.ID, func(b *testing.B) {
			engine := s.Engine(iql.ForwardExpansion)
			var count int
			for i := 0; i < b.N; i++ {
				res, err := engine.Query(q.IQL)
				if err != nil {
					b.Fatal(err)
				}
				count = res.Count()
			}
			b.ReportMetric(float64(count), "results")
		})
	}
}

// BenchmarkFigure6_QueryResponseTimes measures warm-cache response time
// per query (the per-op time is the figure's bar).
func BenchmarkFigure6_QueryResponseTimes(b *testing.B) {
	s := setup(b)
	engine := s.Engine(iql.ForwardExpansion)
	for _, q := range experiments.PaperQueries() {
		q := q
		// Warm the caches as the paper does.
		if _, err := engine.Query(q.IQL); err != nil {
			b.Fatal(err)
		}
		b.Run(q.ID, func(b *testing.B) {
			var inter int64
			for i := 0; i < b.N; i++ {
				res, err := engine.Query(q.IQL)
				if err != nil {
					b.Fatal(err)
				}
				inter = res.Plan.Intermediates
			}
			b.ReportMetric(float64(inter), "intermediates")
		})
	}
}

// BenchmarkAblation_IndexVsScan contrasts the content index against the
// grep-style scan baseline the paper's introduction argues against.
func BenchmarkAblation_IndexVsScan(b *testing.B) {
	s := setup(b)
	b.Run("indexed", func(b *testing.B) {
		engine := s.Engine(iql.ForwardExpansion)
		for i := 0; i < b.N; i++ {
			if _, err := engine.Query(`"database tuning"`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			experiments.ScanPhrase(s.Mgr, "database tuning")
		}
	})
}

// BenchmarkAblation_ExpansionStrategy compares forward, backward and
// automatic expansion on a Q8-shaped path query (§7.2's discussion).
func BenchmarkAblation_ExpansionStrategy(b *testing.B) {
	s := setup(b)
	const q = `//*[class="emailmessage"]//*.tex`
	for _, exp := range []iql.Expansion{iql.ForwardExpansion, iql.BackwardExpansion, iql.AutoExpansion} {
		exp := exp
		b.Run(exp.String(), func(b *testing.B) {
			engine := s.Engine(exp)
			var inter int64
			for i := 0; i < b.N; i++ {
				res, err := engine.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				inter = res.Plan.Intermediates
			}
			b.ReportMetric(float64(inter), "intermediates")
		})
	}
}

// BenchmarkAblation_GroupReplica compares graph navigation through the
// group replica (data shipping) against live-source navigation (query
// shipping) — the §5.2 trade-off.
func BenchmarkAblation_GroupReplica(b *testing.B) {
	s, err := experiments.NewSetupWithOptions(0.01, benchSeed, false,
		rvm.Options{ReplicateGroups: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Index(); err != nil {
		b.Fatal(err)
	}
	oids := s.Mgr.AllOIDs()
	if len(oids) > 200 {
		oids = oids[:200]
	}
	b.Run("replica", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, oid := range oids {
				s.Mgr.Children(oid)
			}
		}
	})
	// Query-shipping manager: same dataset, replication off.
	b.Run("live", func(b *testing.B) {
		s2 := newNoReplicaSetup(b)
		oids2 := s2.Mgr.AllOIDs()
		if len(oids2) > 200 {
			oids2 = oids2[:200]
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, oid := range oids2 {
				s2.Mgr.Children(oid)
			}
		}
	})
}

var (
	noReplicaOnce  sync.Once
	noReplicaSetup *experiments.Setup
	noReplicaErr   error
)

func newNoReplicaSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	noReplicaOnce.Do(func() {
		noReplicaSetup, noReplicaErr = experiments.NewSetupWithOptions(0.01, benchSeed, false,
			rvm.Options{ReplicateGroups: false})
		if noReplicaErr == nil {
			noReplicaErr = noReplicaSetup.Index()
		}
	})
	if noReplicaErr != nil {
		b.Fatal(noReplicaErr)
	}
	return noReplicaSetup
}

// BenchmarkAblation_PushVsPoll contrasts push-based stream delivery
// (§4.4.2 "need to push") against the generic polling facility
// (§4.4.1). The measured quantity is notification latency: the time
// from a message entering the store to a subscribed operator seeing it.
// Push delivers immediately; the pseudo-stream poller pays up to one
// polling interval.
func BenchmarkAblation_PushVsPoll(b *testing.B) {
	b.Run("push", func(b *testing.B) {
		st := mail.NewStore()
		broker := stream.NewBroker()
		seen := make(chan struct{}, 1)
		broker.Subscribe("msgs", stream.OperatorFunc(func(stream.Event) {
			select {
			case seen <- struct{}{}:
			default:
			}
		}))
		// Wire the store's push feed to the broker.
		msgs := st.Watch()
		go func() {
			for m := range msgs {
				broker.Publish("msgs", core.NewView(m.Subject, ""))
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Append(&mail.Message{Folder: "INBOX", Subject: "m"})
			<-seen
		}
		b.StopTimer()
		st.CloseWatchers()
	})
	b.Run("poll-1ms", func(b *testing.B) {
		st := mail.NewStore()
		broker := stream.NewBroker()
		seen := make(chan struct{}, 1)
		broker.Subscribe("msgs", stream.OperatorFunc(func(stream.Event) {
			select {
			case seen <- struct{}{}:
			default:
			}
		}))
		var last uint64
		poller := stream.StartPoller(broker, "msgs", time.Millisecond, func() []core.ResourceView {
			var out []core.ResourceView
			for _, m := range st.PollSince(last) {
				last = m.UID
				out = append(out, core.NewView(m.Subject, ""))
			}
			return out
		})
		defer poller.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Append(&mail.Message{Folder: "INBOX", Subject: "m"})
			<-seen
		}
	})
}

// BenchmarkAblation_LazyVsEager contrasts answering one content query by
// lazy navigation over the live source graph against the eager
// index-then-query pipeline (§4.1's lazy computation versus the
// prototype's indexes).
func BenchmarkAblation_LazyVsEager(b *testing.B) {
	s := setup(b)
	b.Run("eager-indexed-query", func(b *testing.B) {
		engine := s.Engine(iql.ForwardExpansion)
		for i := 0; i < b.N; i++ {
			if _, err := engine.Query(`"Mike Franklin"`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lazy-live-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			experiments.ScanPhrase(s.Mgr, "Mike Franklin")
		}
	})
}

// BenchmarkAblation_QueryCache measures the version-invalidated query
// result cache: the warm-cache regime of Figure 6 made explicit.
func BenchmarkAblation_QueryCache(b *testing.B) {
	d := idm.GenerateDataset(idm.DatasetConfig{Scale: 0.02, Seed: benchSeed})
	const q = `//PIM//Introduction[class="latex_section" and "Mike Franklin"]`
	b.Run("cached", func(b *testing.B) {
		sys, err := idm.OpenDataset(d, idm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Index(); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Query(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		d2 := idm.GenerateDataset(idm.DatasetConfig{Scale: 0.02, Seed: benchSeed})
		sys, err := idm.OpenDataset(d2, idm.Config{DisableQueryCache: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Index(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pageSink keeps the compiler from discarding the measured calls.
var pageSink *idm.Page

// benchPageSystem indexes the bench dataset into a fresh System.
func benchPageSystem(b *testing.B, cfg idm.Config) *idm.System {
	b.Helper()
	d := idm.GenerateDataset(idm.DatasetConfig{Scale: benchScale, Seed: benchSeed})
	sys, err := idm.OpenDataset(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		b.Fatal(err)
	}
	return sys
}

// The QueryPage benches time what imemexd's /query handler calls, on
// Q1 (~1064 rows at this scale) at the daemon's bench page size, for
// iterating on the page path without the 18 s harness of bench/.
const (
	pageQuery = `"database"`
	pageLimit = 100
)

// BenchmarkQueryPageMiss is a first page nobody asked for before:
// evaluate, order, resolve 100 rows (the cache is off, so every
// iteration misses).
func BenchmarkQueryPageMiss(b *testing.B) {
	sys := benchPageSystem(b, idm.Config{DisableQueryCache: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sys.QueryPage(pageQuery, nil, pageLimit)
		if err != nil {
			b.Fatal(err)
		}
		pageSink = p
	}
}

// BenchmarkQueryPageHit repeats one page of a cached result: no
// evaluation, no ordering, no catalog lookups.
func BenchmarkQueryPageHit(b *testing.B) {
	sys := benchPageSystem(b, idm.Config{})
	if _, err := sys.QueryPage(pageQuery, nil, pageLimit); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sys.QueryPage(pageQuery, nil, pageLimit)
		if err != nil {
			b.Fatal(err)
		}
		pageSink = p
	}
}

// BenchmarkQueryPageWalk is one whole cursor walk of the cached result,
// first page to last.
func BenchmarkQueryPageWalk(b *testing.B) {
	sys := benchPageSystem(b, idm.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var after []idm.OID
		for {
			p, err := sys.QueryPage(pageQuery, after, pageLimit)
			if err != nil {
				b.Fatal(err)
			}
			pageSink = p
			if p.Next == nil {
				break
			}
			after = p.Next
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
