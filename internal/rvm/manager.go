// Package rvm implements the Resource View Manager of §5.2 of the iDM
// paper: the central instance managing resource views. It assembles the
// four sub-modules of Figure 4 — the Data Source Proxy (a set of
// sources.Source plugins), the Content2iDM converters, the
// Replica&Indexes module (name index & replica, tuple index & replica,
// content index, group replica, resource view catalog), and the
// Synchronization Manager (full sync, change-driven resync, and
// polling).
package rvm

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/imageindex"
	"repro/internal/obs"
	"repro/internal/sources"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/textindex"
	"repro/internal/tupleindex"
	"repro/internal/wildcard"
)

// Options tunes the manager.
type Options struct {
	// ReplicateGroups controls whether group components are replicated
	// inside the RVM (the data-shipping side of the data- vs.
	// query-shipping trade-off of §5.2). When false, navigation falls
	// back to the live source views (query shipping).
	ReplicateGroups bool
	// MaxContentBytes bounds how much of one view's content is read for
	// indexing; <= 0 applies 4 MiB. Infinite content is never indexed.
	MaxContentBytes int64
	// InfinitePrefix bounds how many children are drawn from infinite
	// group components during a sync (the "stream window" of §5.2);
	// <= 0 applies 1024.
	InfinitePrefix int
	// IndexImages additionally indexes binary (non-textual) content in
	// a histogram-based similarity index — the QBIC-style content index
	// §5.2 gives as the example of a non-text content index.
	IndexImages bool
	// Metrics receives the manager's instruments (rvm_* series), the
	// broker's (stream_*) and every plugin's (source_<id>_*); see
	// docs/OBSERVABILITY.md. nil leaves the whole RVM uninstrumented.
	Metrics *obs.Registry
	// Resilience wraps every added source in a resilient Data Source
	// Proxy (retry with backoff, call timeouts, circuit breaker; see
	// docs/RESILIENCE.md). nil leaves plugin calls direct, which is what
	// fault-sensitive tests rely on.
	Resilience *sources.Policy
	// Faults is the dataspace's fault injector, handed to every plugin
	// implementing sources.FaultSetter. nil injects nothing.
	Faults *fault.Injector
	// Store is the durability layer: when set, every replica commit
	// (view upserts, group-edge commits, removals) is written to its
	// log before being applied in memory, and RemoveSource drops the
	// source's persisted segments. Any storage.Engine works (tests
	// fake it); nil keeps the dataspace in-memory only. See
	// docs/PERSISTENCE.md.
	Store storage.Engine
}

func (o Options) withDefaults() Options {
	if o.MaxContentBytes <= 0 {
		o.MaxContentBytes = 4 << 20
	}
	if o.InfinitePrefix <= 0 {
		o.InfinitePrefix = 1024
	}
	return o
}

// DefaultOptions replicates groups — the configuration the paper's
// evaluation uses ("Group Replica: a replica of all resource views'
// group components ... kept in-memory").
func DefaultOptions() Options {
	return Options{ReplicateGroups: true}
}

// managerMetrics bundles the manager's instruments. With no registry
// configured every field is a nil (no-op) instrument.
type managerMetrics struct {
	views         *obs.Gauge
	syncs         *obs.Counter
	syncNs        *obs.Histogram
	syncViews     *obs.Counter
	syncRemoved   *obs.Counter
	changeNotifs  *obs.Counter
	childLookups  *obs.Counter
	nameMatches   *obs.Counter
	phraseLookups *obs.Counter
	tupleQueries  *obs.Counter
	syncErrors    *obs.Counter
	degraded      *obs.Gauge
}

func newManagerMetrics(reg *obs.Registry) managerMetrics {
	return managerMetrics{
		views:         reg.Gauge("rvm_views"),
		syncs:         reg.Counter("rvm_syncs_total"),
		syncNs:        reg.Histogram("rvm_sync_ns", nil),
		syncViews:     reg.Counter("rvm_sync_views_total"),
		syncRemoved:   reg.Counter("rvm_sync_removed_total"),
		changeNotifs:  reg.Counter("rvm_change_notifications_total"),
		childLookups:  reg.Counter("rvm_child_lookups_total"),
		nameMatches:   reg.Counter("rvm_name_matches_total"),
		phraseLookups: reg.Counter("rvm_phrase_lookups_total"),
		tupleQueries:  reg.Counter("rvm_tuple_queries_total"),
		syncErrors:    reg.Counter("rvm_sync_errors_total"),
		degraded:      reg.Gauge("rvm_degraded_sources"),
	}
}

// Manager is the Resource View Manager.
type Manager struct {
	opts     Options
	registry *core.Registry
	catalog  *catalog.Catalog
	broker   *stream.Broker
	history  *history
	met      managerMetrics

	mu      sync.RWMutex
	sources map[string]sources.Source
	dirty   map[string]bool
	// health tracks per-source sync outcomes; a source whose last sync
	// failed is degraded and its replicated views are served stale.
	health map[string]*SourceHealth

	// replicas is the Replica & Indexes module; apply.go is its only
	// writer.
	replicas

	// est memoizes per-root descendant counts and per-class member
	// counts for planner estimates (stats.go); invalidated by dataspace
	// version.
	est estCache
}

// New returns a manager with the standard class registry.
func New(opts Options) *Manager { return NewWithCatalog(opts, catalog.New()) }

// NewWithCatalog returns a manager over a pre-existing catalog (for
// example, one loaded from disk). OIDs registered in the catalog remain
// stable: re-synchronizing the same sources re-associates live views
// and indexes with their persisted identities.
func NewWithCatalog(opts Options, cat *catalog.Catalog) *Manager {
	broker := stream.NewBroker()
	broker.SetMetrics(opts.Metrics)
	return &Manager{
		opts:     opts.withDefaults(),
		registry: core.StandardRegistry(),
		catalog:  cat,
		broker:   broker,
		history:  newHistory(),
		met:      newManagerMetrics(opts.Metrics),
		sources:  make(map[string]sources.Source),
		dirty:    make(map[string]bool),
		health:   make(map[string]*SourceHealth),
		replicas: newReplicas(0),
	}
}

// replicas is the state of the Replica & Indexes module.
type replicas struct {
	nameIdx *textindex.Index // name index (full text over η)
	nameRep map[catalog.OID]string
	// byLowerName is the exact-match lane of the name replica; lowered
	// full names map to their members.
	byLowerName map[string]map[catalog.OID]struct{}
	nameLower   map[catalog.OID]string
	tupleIdx    *tupleindex.Index // tuple index & replica (DSM columns)
	contentIdx  *textindex.Index  // content index (not a replica)
	imageIdx    *imageindex.Index // similarity index over binary content
	groupRep    map[catalog.OID][]catalog.OID
	parentRep   map[catalog.OID][]catalog.OID
	classRep    map[string]map[catalog.OID]struct{} // class name → members
	classOf     map[catalog.OID]string
	views       map[catalog.OID]core.ResourceView
	// contentBytes records per-source net input (bytes actually fed to
	// the content index) for the Table 3 reproduction; textLen is each
	// view's share of it, so a re-applied or removed view replaces or
	// returns its contribution.
	contentBytes map[string]int64
	textLen      map[catalog.OID]int64
}

// newReplicas returns empty replicas whose per-view maps have room for
// views entries, so a restore that knows its size does not rehash them
// as it fills them.
func newReplicas(views int) replicas {
	return replicas{
		nameIdx:      textindex.New(),
		nameRep:      make(map[catalog.OID]string, views),
		byLowerName:  make(map[string]map[catalog.OID]struct{}),
		nameLower:    make(map[catalog.OID]string, views),
		tupleIdx:     tupleindex.New(),
		contentIdx:   textindex.New(),
		imageIdx:     imageindex.New(),
		groupRep:     make(map[catalog.OID][]catalog.OID),
		parentRep:    make(map[catalog.OID][]catalog.OID, views),
		classRep:     make(map[string]map[catalog.OID]struct{}),
		classOf:      make(map[catalog.OID]string, views),
		views:        make(map[catalog.OID]core.ResourceView),
		contentBytes: make(map[string]int64),
		textLen:      make(map[catalog.OID]int64, views),
	}
}

// Registry returns the resource view class registry.
func (m *Manager) Registry() *core.Registry { return m.registry }

// Catalog returns the resource view catalog.
func (m *Manager) Catalog() *catalog.Catalog { return m.catalog }

// TopicAllViews is the broker topic carrying every view the
// Synchronization Manager registers, across all sources; per-source
// feeds use "views/<source>".
const TopicAllViews = "views"

// PublishedView is the event payload on the broker feeds: the live
// resource view together with its catalog OID.
type PublishedView struct {
	core.ResourceView
	OID catalog.OID
}

// Broker returns the push broker carrying change events (§4.4.2): every
// registered or updated view is published on TopicAllViews and on its
// source's "views/<source>" topic.
func (m *Manager) Broker() *stream.Broker { return m.broker }

// AddSource registers a data source plugin with the Data Source Proxy
// and subscribes to its change notifications when available. When the
// manager carries a metrics registry, plugins implementing
// sources.MetricsSetter receive their per-source instruments here; when
// it carries a fault injector, plugins implementing sources.FaultSetter
// receive it; and when Options.Resilience is set, the plugin is wrapped
// in a resilient proxy before registration.
func (m *Manager) AddSource(src sources.Source) error {
	if fs, ok := src.(sources.FaultSetter); ok && m.opts.Faults != nil {
		fs.SetFaults(m.opts.Faults)
	}
	if m.opts.Resilience != nil {
		src = sources.NewResilient(src, *m.opts.Resilience)
	}
	m.mu.Lock()
	if _, dup := m.sources[src.ID()]; dup {
		m.mu.Unlock()
		return fmt.Errorf("rvm: source %q already registered", src.ID())
	}
	m.sources[src.ID()] = src
	m.dirty[src.ID()] = true
	m.health[src.ID()] = &SourceHealth{Source: src.ID()}
	m.mu.Unlock()

	if ms, ok := src.(sources.MetricsSetter); ok && m.opts.Metrics != nil {
		ms.SetMetrics(sources.NewSourceMetrics(m.opts.Metrics, src.ID()))
	}
	obs.Logger("rvm").Debug("source registered", "source", src.ID())
	if ch := src.Changes(); ch != nil {
		go m.consumeChanges(src.ID(), ch)
	}
	return nil
}

// RemoveSource deregisters a data source plugin: the plugin is closed,
// a drop-source record removes every view cataloged for it from the
// catalog, indexes and replicas (each removal is journaled, so the
// dataspace version bumps and version-keyed caches invalidate), and its
// health state is dropped. With a durability layer configured,
// Store.DropSource logs that record (and deletes the source's persisted
// segments) first, so the views never resurrect on restart, even from
// an older snapshot.
func (m *Manager) RemoveSource(id string) error {
	m.mu.Lock()
	src, ok := m.sources[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("rvm: unknown source %q", id)
	}
	delete(m.sources, id)
	delete(m.dirty, id)
	delete(m.health, id)
	m.mu.Unlock()

	if err := src.Close(); err != nil {
		obs.Logger("rvm").Debug("source close failed", "source", id, "err", err)
	}
	if m.opts.Store != nil {
		if err := m.opts.Store.DropSource(id, m.catalog.NextOID()); err != nil {
			return fmt.Errorf("rvm: dropping WAL segments of %q: %w", id, err)
		}
	}
	removed := len(m.catalog.SourceOIDs(id))
	if err := m.apply(m.live(), store.Record{Kind: store.KindDropSource, Source: id}); err != nil {
		return err
	}
	m.met.syncRemoved.Add(int64(removed))
	m.met.views.Set(int64(m.catalog.Count()))
	m.updateDegradedGauge()
	obs.Logger("rvm").Debug("source removed", "source", id, "views", removed)
	return nil
}

// Source returns the registered data source plugin with the given id.
func (m *Manager) Source(id string) (sources.Source, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	src, ok := m.sources[id]
	return src, ok
}

// Sources lists registered source ids in sorted order.
func (m *Manager) Sources() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.sources))
	for id := range m.sources {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// consumeChanges marks the source dirty on every change notification.
// ProcessPending (or the polling loop) then resynchronizes it.
func (m *Manager) consumeChanges(id string, ch <-chan sources.Change) {
	for range ch {
		m.met.changeNotifs.Inc()
		m.mu.Lock()
		m.dirty[id] = true
		m.mu.Unlock()
	}
}

// View returns the live resource view registered under oid.
func (m *Manager) View(oid catalog.OID) (core.ResourceView, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.views[oid]
	return v, ok
}

// Entry returns the catalog entry of oid.
func (m *Manager) Entry(oid catalog.OID) (catalog.Entry, error) {
	return m.catalog.Get(oid)
}

// Count returns the number of managed resource views.
func (m *Manager) Count() int { return m.catalog.Count() }

// AllOIDs returns every managed OID in ascending order.
func (m *Manager) AllOIDs() []catalog.OID {
	entries := m.catalog.All()
	out := make([]catalog.OID, len(entries))
	for i, e := range entries {
		out[i] = e.OID
	}
	return out
}

// NameOf returns the replicated name of oid.
func (m *Manager) NameOf(oid catalog.OID) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.nameRep[oid]
}

// Children returns the directly related views of oid. With group
// replication on, the replica answers; otherwise the live view is
// navigated (query shipping).
func (m *Manager) Children(oid catalog.OID) []catalog.OID {
	m.met.childLookups.Inc()
	m.mu.RLock()
	if m.opts.ReplicateGroups {
		out := append([]catalog.OID(nil), m.groupRep[oid]...)
		m.mu.RUnlock()
		return out
	}
	v := m.views[oid]
	m.mu.RUnlock()
	if v == nil {
		return nil
	}
	children, err := core.Children(v)
	if err != nil {
		return nil
	}
	var out []catalog.OID
	for _, c := range children {
		if oid, ok := m.oidOfView(c); ok {
			out = append(out, oid)
		}
	}
	return out
}

// AppendChildren appends the direct children of oid to dst and returns
// the extended slice. With group replication on (the default) this
// copies straight out of the replica under a read lock into the
// caller's buffer, avoiding the per-call allocation of Children — the
// iQL evaluator's expansion loops call this once per frontier view.
func (m *Manager) AppendChildren(dst []catalog.OID, oid catalog.OID) []catalog.OID {
	m.met.childLookups.Inc()
	m.mu.RLock()
	if m.opts.ReplicateGroups {
		dst = append(dst, m.groupRep[oid]...)
		m.mu.RUnlock()
		return dst
	}
	m.mu.RUnlock()
	return append(dst, m.Children(oid)...)
}

// oidOfView resolves a live view back to its OID (linear in the worst
// case; only used on the query-shipping path).
func (m *Manager) oidOfView(v core.ResourceView) (catalog.OID, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for oid, w := range m.views {
		if w == v {
			return oid, true
		}
	}
	return 0, false
}

// Parents returns the views oid is directly related from (the reverse
// edges maintained alongside the group replica; they power backward
// expansion).
func (m *Manager) Parents(oid catalog.OID) []catalog.OID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]catalog.OID(nil), m.parentRep[oid]...)
}

// LookupNameTerm returns the OIDs of views whose name contains the term.
func (m *Manager) LookupNameTerm(term string) []catalog.OID {
	return toOIDs(m.nameIdx.Lookup(term))
}

// MatchNames returns the OIDs of views whose full name matches the
// wildcard pattern ('*' any run, '?' one rune); matching is
// case-insensitive, as iQL name steps are. Patterns without wildcard
// metacharacters resolve through the exact-name lane of the name
// replica.
func (m *Manager) MatchNames(pattern string) []catalog.OID {
	m.met.nameMatches.Inc()
	lowered := strings.ToLower(pattern)
	m.mu.RLock()
	var out []catalog.OID
	if !wildcard.IsPattern(lowered) {
		for oid := range m.byLowerName[lowered] {
			out = append(out, oid)
		}
	} else {
		for oid, name := range m.nameLower {
			if wildcard.MatchLowered(lowered, name) {
				out = append(out, oid)
			}
		}
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ContentPhrase returns the OIDs of views whose content contains the
// phrase (consecutive tokens).
func (m *Manager) ContentPhrase(phrase string) []catalog.OID {
	m.met.phraseLookups.Inc()
	return toOIDs(m.contentIdx.Phrase(phrase))
}

// ContentPhraseFreqs returns, for views whose content contains the
// phrase, the number of occurrences — the term-frequency signal iQL
// result ranking uses.
func (m *Manager) ContentPhraseFreqs(phrase string) map[catalog.OID]int {
	hits := m.contentIdx.PhraseHits(phrase)
	out := make(map[catalog.OID]int, len(hits))
	for _, h := range hits {
		out[catalog.OID(h.Doc)] = h.Freq
	}
	return out
}

// ContentAnd returns the OIDs of views whose content contains every
// term.
func (m *Manager) ContentAnd(terms ...string) []catalog.OID {
	return toOIDs(m.contentIdx.And(terms...))
}

// ContentOr returns the OIDs of views whose content contains any term.
func (m *Manager) ContentOr(terms ...string) []catalog.OID {
	return toOIDs(m.contentIdx.Or(terms...))
}

// TupleQuery returns the OIDs of views whose tuple attribute satisfies
// (op, value), answered from the vertically partitioned tuple index.
func (m *Manager) TupleQuery(attr string, op tupleindex.Op, value core.Value) []catalog.OID {
	m.met.tupleQueries.Inc()
	ids := m.tupleIdx.Query(attr, op, value)
	out := make([]catalog.OID, len(ids))
	for i, id := range ids {
		out[i] = catalog.OID(id)
	}
	return out
}

// Tuple returns the replicated tuple component of oid.
func (m *Manager) Tuple(oid catalog.OID) (core.TupleComponent, bool) {
	return m.tupleIdx.Tuple(tupleindex.DocID(oid))
}

// ImageMatch is one image-similarity result.
type ImageMatch struct {
	OID        catalog.OID
	Similarity float64
}

// SimilarImages returns the k binary-content views most similar to oid
// under the histogram index (requires Options.IndexImages).
func (m *Manager) SimilarImages(oid catalog.OID, k int) []ImageMatch {
	hits := m.imageIdx.Similar(imageindex.DocID(oid), k)
	out := make([]ImageMatch, len(hits))
	for i, h := range hits {
		out[i] = ImageMatch{OID: catalog.OID(h.Doc), Similarity: h.Similarity}
	}
	return out
}

// ImageCount returns the number of binary contents in the similarity
// index.
func (m *Manager) ImageCount() int { return m.imageIdx.Len() }

func toOIDs(ids []textindex.DocID) []catalog.OID {
	out := make([]catalog.OID, len(ids))
	for i, id := range ids {
		out[i] = catalog.OID(id)
	}
	return out
}

// WildcardMatch reports whether name matches pattern; see
// internal/wildcard for the semantics.
func WildcardMatch(pattern, name string) bool {
	return wildcard.Match(pattern, name)
}
