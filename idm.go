// Package idm is a from-scratch Go implementation of the iMeMex Data
// Model and Personal Dataspace Management System described in
// "iDM: A Unified and Versatile Data Model for Personal Dataspace
// Management" (Dittrich and Vaz Salles, VLDB 2006).
//
// The package is the public facade over the full stack:
//
//   - the iDM core model: resource views with name/tuple/content/group
//     components, lazy and infinite components, resource view classes
//     and graph algorithms (internal/core);
//   - data source plugins for filesystems, IMAP-style email stores,
//     relational databases and RSS feeds (internal/sources/...);
//   - Content2iDM converters for XML and LaTeX (internal/convert);
//   - the Resource View Manager with its catalog, name/tuple/content
//     indexes and group replica (internal/rvm);
//   - the iQL query language: keyword search, path expressions,
//     attribute and class predicates, union and join (internal/iql).
//
// A minimal session:
//
//	sys := idm.Open(idm.Config{})
//	fs := idm.NewFileSystem()
//	fs.MkdirAll("/Projects/PIM")
//	fs.WriteFile("/Projects/PIM/paper.tex", []byte(`\section{Introduction}...`))
//	sys.AddFileSystem("filesystem", fs)
//	sys.Index()
//	res, _ := sys.Query(`//PIM//Introduction[class="latex_section"]`)
//	for _, item := range res.Items {
//		fmt.Println(item.Path, item.Class)
//	}
package idm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/iql"
	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/rss"
	"repro/internal/rvm"
	"repro/internal/sources"
	"repro/internal/sources/fsplugin"
	"repro/internal/sources/mailplugin"
	"repro/internal/sources/relplugin"
	"repro/internal/sources/rssplugin"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// Re-exported core types: the iDM data model itself is part of the
// public API.
type (
	// ResourceView is the central iDM abstraction (Definition 1 of the
	// paper): a 4-tuple of name, tuple, content and group components,
	// each obtainable through a get-method and computable lazily.
	ResourceView = core.ResourceView
	// TupleComponent is the τ component: a (schema, tuple) pair.
	TupleComponent = core.TupleComponent
	// Content is the χ component: a finite or infinite symbol string.
	Content = core.Content
	// Group is the γ component: a set and a sequence of related views.
	Group = core.Group
	// OID is the stable catalog identifier of a managed resource view.
	OID = catalog.OID
	// FS is the in-memory virtual filesystem substrate.
	FS = vfs.FS
	// MailStore is the simulated IMAP-style message store.
	MailStore = mail.Store
	// MailMessage is one email message.
	MailMessage = mail.Message
	// MailAttachment is one message attachment.
	MailAttachment = mail.Attachment
	// MailLatency models remote access cost per store operation.
	MailLatency = mail.Latency
	// RelDB is the embedded relational database substrate.
	RelDB = relstore.DB
	// RSSServer is the simulated RSS/ATOM feed server.
	RSSServer = rss.Server
	// Source is a data source plugin.
	Source = sources.Source
	// SyncReport carries per-source indexing timings (Figure 5).
	SyncReport = rvm.SyncReport
	// SyncTiming is one source's indexing time breakdown.
	SyncTiming = rvm.SyncTiming
	// IndexSizes reports index/replica footprints (Table 3).
	IndexSizes = rvm.IndexSizes
	// SourceBreakdown is one row of Table 2.
	SourceBreakdown = rvm.SourceBreakdown
	// ChangeRecord is one entry of the dataspace change journal
	// (versioning, §8 of the paper).
	ChangeRecord = rvm.ChangeRecord
	// LineageStep is one hop of a view's provenance chain (lineage,
	// §8 of the paper).
	LineageStep = rvm.LineageStep
	// ResiliencePolicy tunes the per-source retry/timeout/circuit-breaker
	// proxy wrapped around every registered plugin (see
	// docs/RESILIENCE.md). The zero value applies sensible defaults.
	ResiliencePolicy = sources.Policy
	// SourceHealth is one source's degradation status as tracked by the
	// Resource View Manager.
	SourceHealth = rvm.SourceHealth
	// FaultInjector deterministically injects failures at named points in
	// the source layer; for tests and chaos drills.
	FaultInjector = fault.Injector
	// FaultRule describes one injected failure.
	FaultRule = fault.Rule
	// FaultKind classifies what a FaultRule injects.
	FaultKind = fault.Kind
	// SyncPolicy selects when the durable store fsyncs its write-ahead
	// log (see docs/PERSISTENCE.md).
	SyncPolicy = store.SyncPolicy
	// RecoveryInfo reports what a durable open reconstructed: snapshot
	// loaded, WAL records replayed, torn tails tolerated, warnings.
	RecoveryInfo = store.RecoveryInfo
	// StorageEngine is the storage contract the durable store satisfies
	// (see internal/storage).
	StorageEngine = storage.Engine
)

// Fsync policies for Config.Fsync.
const (
	// SyncOnCommit (the default) fsyncs at each sync walk's commit point
	// (the edge-commit record) and on source drops.
	SyncOnCommit = store.SyncOnCommit
	// SyncAlways fsyncs after every WAL record.
	SyncAlways = store.SyncAlways
	// SyncNever leaves flushing to the OS (crash-unsafe; benchmarks).
	SyncNever = store.SyncNever
)

// Fault kinds a FaultRule can inject.
const (
	FaultError       = fault.Error
	FaultLatency     = fault.Latency
	FaultPartialRead = fault.PartialRead
	FaultCorrupt     = fault.Corrupt
)

// NewFaultInjector returns a deterministic fault injector; register it
// via Config.Faults before adding sources.
func NewFaultInjector(seed int64) *FaultInjector { return fault.New(seed) }

// ParseFaultRule parses a "point:kind[:p[:times]]" rule spec (see
// fault.ParseRule); used by the imemex -fault flag.
func ParseFaultRule(spec string) (FaultRule, error) { return fault.ParseRule(spec) }

// IsFaultInjected reports whether err originates from a FaultInjector.
func IsFaultInjected(err error) bool { return fault.IsInjected(err) }

// Change journal record kinds.
const (
	ChangeAdded   = rvm.ChangeAdded
	ChangeUpdated = rvm.ChangeUpdated
	ChangeRemoved = rvm.ChangeRemoved
)

// NewFileSystem returns an empty virtual filesystem.
func NewFileSystem() *FS { return vfs.New() }

// NewMailStore returns an empty mail store.
func NewMailStore() *MailStore { return mail.NewStore() }

// NewRelDB returns an empty relational database with the given name.
func NewRelDB(name string) *RelDB { return relstore.NewDB(name) }

// NewRSSServer returns an empty feed server.
func NewRSSServer() *RSSServer { return rss.NewServer() }

// Expansion selects the iQL path-evaluation strategy.
type Expansion = iql.Expansion

// QueryStats is the per-query resource accounting attached to every
// Result (see iql.QueryStats for field semantics).
type QueryStats = iql.QueryStats

// Expansion strategies: the paper's prototype uses forward expansion;
// backward and automatic expansion implement the improvement §7.2
// proposes for Q8-style queries.
const (
	Forward  = iql.ForwardExpansion
	Backward = iql.BackwardExpansion
	Auto     = iql.AutoExpansion
)

// Config tunes a System.
type Config struct {
	// Parallelism sets the iQL engine's worker count (default
	// runtime.GOMAXPROCS(0); 1 forces serial execution). Results are
	// identical at any setting.
	Parallelism int
	// Now supplies the clock for iQL date functions (default time.Now).
	Now func() time.Time
	// IndexImages additionally indexes binary content (photos, audio)
	// in a histogram-based similarity index — the QBIC-style content
	// index §5.2 of the paper gives as an example; query it with
	// SimilarImages.
	IndexImages bool
	// SlowQuery is the query log's slow threshold: queries at or over it
	// additionally retain a full EXPLAIN-style trace render (see
	// QueryLog). Zero applies DefaultSlowQuery; negative disables slow
	// capture while keeping the log.
	SlowQuery time.Duration
	// QueryLogSize is the per-ring capacity of the query log (recent and
	// slow rings). Zero applies obs.DefaultQueryLogSize; negative
	// disables query logging entirely.
	QueryLogSize int
	// Resilience wraps every registered source in a retry/timeout/
	// circuit-breaker proxy with this policy. nil leaves sources
	// unwrapped: a failing source fails its sync on the first error.
	Resilience *ResiliencePolicy
	// DegradedReads selects what reads do while a source is degraded
	// (its last sync failed): ServeStale (default) answers from the
	// last-good replica and flags the result; FailClosed returns
	// ErrDegraded instead.
	DegradedReads DegradedReadPolicy
	// Faults, when set, is handed to every registered source plugin that
	// supports fault injection (all built-in plugins do), and to the
	// durable store when DataDir is set. Testing only.
	Faults *FaultInjector
	// DataDir, when non-empty, makes the dataspace durable: replica
	// commits are written to a checksummed write-ahead log under this
	// directory before they are applied, and OpenDurable recovers the
	// catalog, indexes and replicas from it after a crash or restart.
	// Empty keeps the system fully in-memory. See docs/PERSISTENCE.md.
	DataDir string
	// Fsync selects the WAL flush policy (default SyncOnCommit); only
	// meaningful with DataDir or for OpenReplica's directory.
	Fsync SyncPolicy
}

// DefaultSlowQuery is the slow-query threshold applied when
// Config.SlowQuery is zero.
const DefaultSlowQuery = 250 * time.Millisecond

// DegradedReadPolicy selects query behaviour while sources are degraded.
type DegradedReadPolicy int

const (
	// ServeStale answers queries from the last successfully synced
	// replica, marking results Stale (graceful degradation).
	ServeStale DegradedReadPolicy = iota
	// FailClosed rejects queries with ErrDegraded while any source is
	// degraded.
	FailClosed
)

// ErrDegraded is returned by every read entry point (Query, QueryPage,
// QueryWith, QueryRanked, Trace and Explain) under
// Config{DegradedReads: FailClosed} while at least one source is
// degraded.
var ErrDegraded = errors.New("idm: dataspace degraded")

// System is an iMeMex-style Personal Dataspace Management System: a
// Resource View Manager plus an iQL query processor.
type System struct {
	mgr        *rvm.Manager
	engine     *iql.Engine
	converters *convert.Registry
	now        func() time.Time
	par        int
	cache      *queryCache
	metrics    *obs.Registry
	qlog       *obs.QueryLog // nil when disabled
	met        systemMetrics
	degraded   DegradedReadPolicy
	store      storage.Engine // nil when in-memory

	// closeOnce makes Close idempotent: the first call closes the store
	// and keeps its error, later calls (an eviction race, a deferred
	// Close after an explicit one) return ErrClosed instead of touching
	// the store again.
	closeOnce sync.Once
	closeErr  error
}

// systemMetrics bundles the facade's own instruments (idm_* series);
// engine, manager and plugin instruments live in the same registry
// under their own prefixes.
type systemMetrics struct {
	queries     *obs.Counter
	queryNs     *obs.Histogram
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	// staleQueries counts queries answered from stale replicas while a
	// source was degraded.
	staleQueries *obs.Counter
	// itemsResolved counts row items resolved against the catalog and
	// resultsOrdered the results put into key order; a page served from
	// a cached entry's memo moves neither (see cachedResult).
	itemsResolved  *obs.Counter
	resultsOrdered *obs.Counter
}

func newSystemMetrics(reg *obs.Registry) systemMetrics {
	return systemMetrics{
		queries:      reg.Counter("idm_queries_total"),
		queryNs:      reg.Histogram("idm_query_ns", nil),
		cacheHits:    reg.Counter("idm_cache_hits_total"),
		cacheMisses:  reg.Counter("idm_cache_misses_total"),
		staleQueries: reg.Counter("idm_stale_queries_total"),

		itemsResolved:  reg.Counter("idm_items_resolved_total"),
		resultsOrdered: reg.Counter("idm_results_ordered_total"),
	}
}

// Open creates an in-memory System. Config.DataDir is ignored here —
// use OpenDurable for a dataspace backed by the durable store.
func Open(cfg Config) *System {
	return open(cfg, catalog.New(), nil, obs.NewRegistry())
}

// OpenDurable creates a System backed by the durable store rooted at
// cfg.DataDir: the latest valid snapshot is loaded, the write-ahead-log
// tail replayed (tolerating a torn final record), and the catalog, text
// and tuple indexes and group replica rebuilt from the recovered graph.
// Sources still need to be re-added; until they are re-synced, queries
// answer from the recovered replicas exactly as they do for a degraded
// source. The returned RecoveryInfo describes what was reconstructed.
//
// With an empty DataDir it degrades to Open (nil RecoveryInfo).
func OpenDurable(cfg Config) (*System, *RecoveryInfo, error) {
	if cfg.DataDir == "" {
		return Open(cfg), nil, nil
	}
	reg := obs.NewRegistry()
	st, info, err := storage.Open(cfg.DataDir, storage.Options{
		Sync:    cfg.Fsync,
		Metrics: reg,
		Faults:  cfg.Faults,
	})
	if err != nil {
		return nil, nil, err
	}
	state := st.State()
	cat := catalog.Rebuild(state.NextOID, state.Entries())
	sys := open(cfg, cat, st, reg)
	sys.mgr.RestoreFromState(state)
	return sys, &info, nil
}

// ErrClosed is returned by the second and later calls to Close. The
// first Close wins and returns the store's close error; concurrent or
// repeated closers (e.g. an LRU evictor racing a deferred Close) get
// ErrClosed deterministically, never a panic or a double-close.
var ErrClosed = errors.New("idm: system closed")

// Close flushes and closes the durable store (a no-op for in-memory
// systems). Close is idempotent and safe to call concurrently: exactly
// one caller performs the close, later calls return ErrClosed. Reads
// (Query) against a closed System still answer from the in-memory
// indexes; mutations that need the store fail.
func (s *System) Close() error {
	if s.store == nil {
		return nil
	}
	first := false
	s.closeOnce.Do(func() {
		first = true
		s.closeErr = s.store.Close()
	})
	if first {
		return s.closeErr
	}
	return ErrClosed
}

// Checkpoint compacts the durable state into a fresh snapshot and
// truncates the write-ahead log; a no-op for in-memory systems.
func (s *System) Checkpoint() error { return s.mgr.Checkpoint() }

// StateDigest returns the stable digest of the durable state ("" for
// in-memory systems) — equal digests mean byte-identical recovered
// graphs.
func (s *System) StateDigest() string { return s.mgr.StateDigest() }

// open assembles a System. st is non-nil only on the durable path;
// the caller creates reg so that OpenDurable's store recovery
// instruments land in the same registry as everything else.
func open(cfg Config, cat *catalog.Catalog, st storage.Engine, reg *obs.Registry) *System {
	opts := rvm.DefaultOptions()
	opts.IndexImages = cfg.IndexImages
	opts.Resilience = cfg.Resilience
	opts.Faults = cfg.Faults
	opts.Store = st
	opts.Metrics = reg
	mgr := rvm.NewWithCatalog(opts, cat)
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	var qlog *obs.QueryLog
	if cfg.QueryLogSize >= 0 {
		slow := cfg.SlowQuery
		if slow == 0 {
			slow = DefaultSlowQuery
		}
		qlog = obs.NewQueryLog(cfg.QueryLogSize, slow)
	}
	engine := iql.NewEngine(mgr, iql.Options{
		Now:         now,
		Parallelism: cfg.Parallelism,
		Metrics:     reg,
		QueryLog:    qlog,
	})
	return &System{
		mgr:        mgr,
		engine:     engine,
		converters: convert.Default(),
		now:        now,
		par:        cfg.Parallelism,
		cache:      newQueryCache(0),
		metrics:    reg,
		qlog:       qlog,
		met:        newSystemMetrics(reg),
		degraded:   cfg.DegradedReads,
		store:      st,
	}
}

// Converters returns the Content2iDM converter registry; custom
// converters may be registered before indexing.
func (s *System) Converters() *convert.Registry { return s.converters }

// Manager exposes the underlying Resource View Manager for advanced use
// (index sizes, per-source breakdowns, the push broker).
func (s *System) Manager() *rvm.Manager { return s.mgr }

// AddFileSystem registers a filesystem data source under the given id.
func (s *System) AddFileSystem(id string, fs *FS) error {
	return s.mgr.AddSource(fsplugin.New(id, fs, s.converters.Func()))
}

// AddMail registers an email data source under the given id.
func (s *System) AddMail(id string, store *MailStore) error {
	return s.mgr.AddSource(mailplugin.New(id, store, s.converters.Func()))
}

// AddRelational registers a relational database source.
func (s *System) AddRelational(id string, db *RelDB) error {
	return s.mgr.AddSource(relplugin.New(id, db))
}

// AddRSS registers an RSS/ATOM source, polling for new items on the
// given interval (0 disables polling).
func (s *System) AddRSS(id string, server *RSSServer, poll time.Duration) error {
	return s.mgr.AddSource(rssplugin.New(id, server, poll))
}

// AddSource registers a custom data source plugin.
func (s *System) AddSource(src Source) error { return s.mgr.AddSource(src) }

// RemoveSource unregisters a source: its plugin is closed, every view it
// contributed is removed from the catalog, indexes and replica (journaled
// as removals), and the query cache is emptied.
func (s *System) RemoveSource(id string) error {
	err := s.mgr.RemoveSource(id)
	if err == nil {
		s.cache.clear()
	}
	return err
}

// Health reports per-source degradation status: whether the last sync
// failed, the error, consecutive failures, and the circuit-breaker state
// when Config.Resilience is set.
func (s *System) Health() []SourceHealth { return s.mgr.Health() }

// DegradedSources lists sources whose last sync failed; queries answered
// while this is non-empty carry Result.Stale (under the default
// ServeStale policy).
func (s *System) DegradedSources() []string { return s.mgr.DegradedSources() }

// Index synchronizes every registered source: it walks each source's
// resource view graph, registers every view in the catalog and feeds the
// name, tuple and content indexes and the group replica.
func (s *System) Index() (SyncReport, error) { return s.mgr.SyncAll() }

// Refresh resynchronizes sources marked dirty by change notifications.
func (s *System) Refresh() ([]string, error) { return s.mgr.ProcessPending() }

// StartPolling runs Refresh over all sources on the interval; call the
// returned stop function to halt.
func (s *System) StartPolling(interval time.Duration) (stop func()) {
	return s.mgr.StartPolling(interval)
}

// Count returns the number of managed resource views.
func (s *System) Count() int { return s.mgr.Count() }

// Query parses and evaluates an iQL query. Results are cached per
// dataspace version, which every change bumps, so a cached result is
// never stale; treat results as read-only. Every row is resolved
// against the catalog; a caller that shows a page at a time wants
// QueryPage.
func (s *System) Query(q string) (*Result, error) {
	start := time.Now()
	c, hit, err := s.cachedQuery(q, start)
	if err != nil {
		return nil, err
	}
	// The resolved Result is shared; hand out a shallow copy whose Stats
	// carry this call's hit flag and latency.
	res := *c.result(s)
	res.Stats.CacheHit = hit
	s.finishQuery(q, c, hit, start, &res.Stats)
	return &res, nil
}

// cachedQuery returns the result answering q: the cache's entry while
// the dataspace version it was evaluated at still stands, otherwise a
// fresh evaluation (cached for the next caller).
func (s *System) cachedQuery(q string, start time.Time) (c *cachedResult, hit bool, err error) {
	degraded, err := s.admit()
	if err != nil {
		return nil, false, err
	}
	// ServeStale bypasses the cache while a source is degraded, so every
	// result honestly carries its Stale flag (a failed sync does not bump
	// the version, so cached rows would be identical but unflagged).
	var version uint64
	if !degraded {
		version = s.mgr.Version()
		if c, ok := s.cache.get(q, version); ok {
			s.met.cacheHits.Inc()
			return c, true, nil
		}
		s.met.cacheMisses.Inc()
	}
	r, err := s.engine.Query(q)
	if err != nil {
		return nil, false, err
	}
	c = s.newCachedResult(r)
	if !degraded {
		// The elapsed time is what this miss cost; the cache reports it
		// as MissLatency against the hit path's HitLatency.
		s.cache.put(q, version, c, time.Since(start))
	}
	return c, false, nil
}

// admit opens every read entry point (Query, QueryPage, QueryWith,
// QueryRanked, Trace): it counts the query and, under FailClosed,
// rejects it with ErrDegraded while any source is degraded. It reports
// whether a source is degraded.
func (s *System) admit() (degraded bool, err error) {
	s.met.queries.Inc()
	stale := s.mgr.DegradedSources()
	if len(stale) > 0 && s.degraded == FailClosed {
		return true, fmt.Errorf("%w: %s", ErrDegraded, strings.Join(stale, ", "))
	}
	return len(stale) > 0, nil
}

// finishQuery closes a Query or QueryPage call: it stamps the call's
// latency into stats, observes it, and logs a cache-served call — the
// engine never sees those, so the facade does. The record keeps the
// cached result's resource stats — what the result originally cost to
// compute — with CacheHit marking that this serving paid none of it.
func (s *System) finishQuery(q string, c *cachedResult, hit bool, start time.Time, stats *QueryStats) {
	elapsed := time.Since(start)
	stats.ElapsedNs = int64(elapsed)
	s.met.queryNs.Observe(int64(elapsed))
	if !hit || s.qlog == nil {
		return
	}
	s.qlog.Record(obs.QueryRecord{
		Query:      q,
		DurationNs: int64(elapsed),
		Rows:       int64(len(c.r.Rows)),
		CacheHit:   true,
		Stale:      c.stale(),
		Strategy:   stats.Strategy,
		Stats: obs.QueryStatsRecord{
			RowsScanned:     stats.RowsScanned,
			PostingsRead:    stats.PostingsRead,
			ResidualFilters: stats.ResidualFilters,
			ViewsExpanded:   stats.ViewsExpanded,
			PeakFrontier:    stats.PeakFrontier,
			IndexAccesses:   stats.IndexAccesses,
			EstimatedRows:   stats.EstimatedRows,
		},
	})
}

// QueryLog returns the system's query log: a ring of the most recent
// queries (text, latency, resource stats) plus a ring of queries at or
// over the slow threshold, each with a full trace render. nil when
// disabled with Config.QueryLogSize < 0. Attach it to the debug HTTP
// surface with obs.ServeWith, or read it directly (Recent, Slow,
// Snapshot).
func (s *System) QueryLog() *obs.QueryLog { return s.qlog }

// CacheStats reports query-cache hits, misses, current size and the
// latency/age detail of cache.go.
func (s *System) CacheStats() CacheStats { return s.cache.stats() }

// Metrics returns the system's metrics registry. Every layer records
// into it: idm_* (facade and cache), iql_* (query engine), rvm_* and
// stream_* (Resource View Manager), source_<id>_* (plugins). Snapshot
// it for export, or disable it with SetEnabled(false).
func (s *System) Metrics() *obs.Registry { return s.metrics }

// Trace evaluates a query with span-based tracing and returns the
// resolved result together with the parse → plan → eval span tree
// (including per-worker spans for sharded stages). Trace bypasses the
// query cache — its purpose is to show evaluation, not memoization.
func (s *System) Trace(q string) (*Result, *obs.Trace, error) {
	if _, err := s.admit(); err != nil {
		return nil, nil, err
	}
	r, tr, err := s.engine.QueryTraced(q)
	if err != nil {
		return nil, tr, err
	}
	return s.newCachedResult(r).result(s), tr, nil
}

// Explain evaluates the query with tracing and returns the rendered
// span tree — an EXPLAIN ANALYZE over the iQL engine. (The package-level
// Explain renders only the normalized parse, without evaluating.)
func (s *System) Explain(q string) (string, error) {
	_, tr, err := s.Trace(q)
	if err != nil {
		return "", err
	}
	return tr.Render(), nil
}

// IndexTraced synchronizes every source like Index, additionally
// recording one span per source with the Figure 5 timing breakdown
// (catalog insert, component indexing, data source access) as span
// attributes.
func (s *System) IndexTraced() (SyncReport, *obs.Trace, error) {
	tr := obs.NewTrace("index")
	rep, err := s.mgr.SyncAllTraced(tr)
	tr.Finish()
	return rep, tr, err
}

// QueryWith evaluates with an explicit expansion strategy in place of
// the forward expansion Query uses. It bypasses the query cache.
func (s *System) QueryWith(q string, exp Expansion) (*Result, error) {
	if _, err := s.admit(); err != nil {
		return nil, err
	}
	engine := iql.NewEngine(s.mgr, iql.Options{Expansion: exp, Now: s.now, Parallelism: s.par})
	r, err := engine.Query(q)
	if err != nil {
		return nil, err
	}
	return s.newCachedResult(r).result(s), nil
}

// Delete executes an iQL delete statement (`delete <query>`): views
// matched by the inner query are removed from their underlying data
// sources, write-through. Only base items of sources that support
// mutation (filesystems, mail stores) are deletable; derived views and
// read-only sources produce per-item errors. Affected sources are
// resynchronized, so the catalog, indexes and change journal reflect
// the deletions. The returned count is the number of items actually
// removed.
func (s *System) Delete(stmt string) (int, error) {
	parsed, err := iql.ParseWith(stmt, iql.ParseOptions{Now: s.now})
	if err != nil {
		return 0, err
	}
	del, ok := parsed.(*iql.DeleteQuery)
	if !ok {
		return 0, fmt.Errorf("idm: Delete needs a `delete <query>` statement, got %q", stmt)
	}
	res, err := s.engine.Exec(del.Inner)
	if err != nil {
		return 0, err
	}

	var errs []string
	affected := make(map[string]bool)
	deleted := 0
	for _, oid := range res.OIDs() {
		e, err := s.mgr.Entry(oid)
		if err != nil {
			continue
		}
		if e.Derived {
			errs = append(errs, fmt.Sprintf("%s: derived view, delete its base item", e.URI))
			continue
		}
		src, ok := s.mgr.Source(e.Source)
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: source %q gone", e.URI, e.Source))
			continue
		}
		mut, ok := src.(sources.Mutator)
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: source %q is read-only", e.URI, e.Source))
			continue
		}
		if err := mut.Delete(e.URI); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", e.URI, err))
			continue
		}
		deleted++
		affected[e.Source] = true
	}
	for src := range affected {
		if _, err := s.mgr.SyncSource(src); err != nil {
			errs = append(errs, fmt.Sprintf("resync %s: %v", src, err))
		}
	}
	if len(errs) > 0 {
		return deleted, fmt.Errorf("idm: delete: %s", strings.Join(errs, "; "))
	}
	return deleted, nil
}

// QueryRanked evaluates a query and orders the rows by relevance: the
// summed content-occurrence counts of the query's phrases. The result's
// Scores align with Rows.
func (s *System) QueryRanked(q string) (*Result, error) {
	if _, err := s.admit(); err != nil {
		return nil, err
	}
	engine := iql.NewEngine(s.mgr, iql.Options{Now: s.now, Rank: true, Parallelism: s.par})
	r, err := engine.Query(q)
	if err != nil {
		return nil, err
	}
	out := s.newCachedResult(r).result(s)
	out.Scores = r.Scores
	return out, nil
}

// Item is one result entry, resolved against the catalog.
type Item struct {
	OID    OID
	Name   string
	Class  string
	Source string
	URI    string
	// Path is the slash-joined name chain from the source root.
	Path string
}

// Row is one result row: one item for path/keyword queries, two for
// joins.
type Row []Item

// Result is a resolved query result.
type Result struct {
	// Columns names the row entries ("view", or the join aliases).
	Columns []string
	Rows    []Row
	// Items flattens the first column.
	Items []Item
	// Plan carries the planner's notes, one per line.
	Plan string
	// Intermediates counts views touched during path expansion.
	Intermediates int
	// Scores aligns with Rows for ranked queries (QueryRanked); nil
	// otherwise.
	Scores []float64
	// Stale reports that at least one source was degraded when the query
	// ran: rows drawn from its replica reflect the last successful sync,
	// not the live source. StaleSources names the degraded sources.
	Stale        bool
	StaleSources []string
	// Stats is the per-query resource accounting: rows scanned, index
	// postings read, views expanded, planner strategy, cache-hit flag.
	Stats QueryStats
}

// Count returns the number of result rows.
func (r *Result) Count() int { return len(r.Rows) }

func (s *System) item(oid OID) Item {
	return (&resolver{s: s}).item(oid)
}

// Path renders the name chain from the source root to the view,
// following catalog Parent links.
func (s *System) Path(oid OID) string {
	return (&resolver{s: s}).path(oid, maxPathDepth)
}

// View returns the live resource view under oid.
func (s *System) View(oid OID) (ResourceView, bool) { return s.mgr.View(oid) }

// Version returns the current dataspace version: logically, each change
// creates a new version of the whole dataspace (§8 of the paper).
func (s *System) Version() uint64 { return s.mgr.Version() }

// Changes returns the change journal records with version > since.
func (s *System) Changes(since uint64) []ChangeRecord { return s.mgr.Changes(since) }

// Lineage returns the provenance chain of a view: itself, the converter
// that derived it (for content subgraphs), its containing base item, and
// the containment chain to the source root, plus any explicit
// derivations recorded with RecordDerivation.
func (s *System) Lineage(oid OID) ([]LineageStep, error) { return s.mgr.Lineage(oid) }

// RecordDerivation records an explicit provenance edge: dst was produced
// from src by the given transformation (e.g. "copy").
func (s *System) RecordDerivation(dst, src OID, how string) {
	s.mgr.RecordDerivation(dst, src, how)
}

// Subscription is a continuous query (an information filter, §4.4.2 of
// the paper): items matching the predicate are delivered on C as the
// Synchronization Manager registers or updates them. Slow consumers
// drop matches rather than blocking the sync.
type Subscription struct {
	// C delivers matching items.
	C      <-chan Item
	cancel func()
}

// Stop ends the subscription; C stops receiving (but is not closed, as
// deliveries may be in flight).
func (sub *Subscription) Stop() { sub.cancel() }

// Subscribe registers a continuous query: a predicate-only iQL
// expression (keyword phrases, attribute and class predicates) that is
// evaluated push-based against every view added or updated by future
// indexing. Path expressions, unions and joins are not supported as
// filters.
func (s *System) Subscribe(query string) (*Subscription, error) {
	parsed, err := iql.ParseWith(query, iql.ParseOptions{Now: s.now})
	if err != nil {
		return nil, err
	}
	pq, ok := parsed.(*iql.PredQuery)
	if !ok {
		return nil, fmt.Errorf("idm: Subscribe needs a predicate query, got %T", parsed)
	}
	isA := s.mgr.Registry().IsA
	ch := make(chan Item, 256)
	cancel := s.mgr.Broker().Subscribe(rvm.TopicAllViews, stream.OperatorFunc(func(e stream.Event) {
		pv, ok := e.View.(*rvm.PublishedView)
		if !ok {
			return
		}
		if !iql.MatchView(pq.Pred, pv.ResourceView, isA, 0) {
			return
		}
		select {
		case ch <- s.item(pv.OID):
		default: // drop on slow consumer
		}
	}))
	return &Subscription{C: ch, cancel: cancel}, nil
}

// Breakdown returns the Table 2 row for a source.
func (s *System) Breakdown(source string) SourceBreakdown { return s.mgr.Breakdown(source) }

// Sizes returns the Table 3 index and replica sizes.
func (s *System) Sizes() IndexSizes { return s.mgr.IndexSizes() }

// NetInputBytes returns the bytes of textual content indexed per source.
func (s *System) NetInputBytes(source string) int64 { return s.mgr.NetInputBytes(source) }

// Sources lists registered source ids.
func (s *System) Sources() []string { return s.mgr.Sources() }

// Compact reclaims index space left behind by deletions (tombstoned
// postings in the name and content indexes). Queries are unaffected;
// run it after bulk removals.
func (s *System) Compact() int { return s.mgr.Compact() }

// SimilarItem is one image-similarity result.
type SimilarItem struct {
	Item
	// Similarity is the cosine similarity of the byte histograms, in
	// [0, 1].
	Similarity float64
}

// SimilarImages returns the k binary-content views most similar to oid
// (histogram cosine similarity). Requires Config.IndexImages; without it
// the index is empty and the result nil.
func (s *System) SimilarImages(oid OID, k int) []SimilarItem {
	hits := s.mgr.SimilarImages(oid, k)
	out := make([]SimilarItem, len(hits))
	for i, h := range hits {
		out[i] = SimilarItem{Item: s.item(h.OID), Similarity: h.Similarity}
	}
	return out
}

// Explain parses a query and returns its normalized rendering, without
// evaluating it.
func Explain(q string) (string, error) {
	parsed, err := iql.Parse(q)
	if err != nil {
		return "", err
	}
	return parsed.String(), nil
}

// Validate checks iQL syntax.
func Validate(q string) error {
	_, err := iql.Parse(q)
	if err != nil {
		return fmt.Errorf("invalid iQL: %w", err)
	}
	return nil
}
