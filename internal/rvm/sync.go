package rvm

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sources"
	"repro/internal/store"
)

// SyncTiming is the per-source timing breakdown Figure 5 of the paper
// reports: the time spent registering metadata in the Resource View
// Catalog, the time spent inserting into the index structures, and the
// time spent obtaining data from the underlying data source.
type SyncTiming struct {
	Source            string
	CatalogInsert     time.Duration
	ComponentIndexing time.Duration
	DataSourceAccess  time.Duration
	Views             int
	Removed           int
}

// Total returns the total indexing time for the source.
func (t SyncTiming) Total() time.Duration {
	return t.CatalogInsert + t.ComponentIndexing + t.DataSourceAccess
}

// SyncReport aggregates one full synchronization.
type SyncReport struct {
	Timings []SyncTiming
}

// TotalViews sums the views registered across sources.
func (r SyncReport) TotalViews() int {
	n := 0
	for _, t := range r.Timings {
		n += t.Views
	}
	return n
}

// SyncAll synchronizes every registered source: it walks each source's
// resource view graph and sends every resource view definition to the
// Replica&Indexes module, as the Synchronization Manager does when a
// data source is registered (§5.2).
func (m *Manager) SyncAll() (SyncReport, error) {
	return m.SyncAllTraced(nil)
}

// SyncAllTraced is SyncAll with span-based tracing: one span per source
// under the trace root, annotated with the Figure 5 timing breakdown.
// A nil trace is identical to SyncAll.
//
// Per-source failures are isolated: a failing source does not abort the
// pass, healthy sources still sync, and the failures come back joined
// into one multi-error (errors.Is finds each cause). Sources that fail
// are marked degraded; their previously replicated views remain
// queryable as stale data.
func (m *Manager) SyncAllTraced(trace *obs.Trace) (SyncReport, error) {
	var report SyncReport
	var errs []error
	for _, id := range m.Sources() {
		sp := trace.Root().Start("sync " + id)
		t, err := m.SyncSource(id)
		if sp != nil {
			sp.SetInt("views", int64(t.Views))
			sp.SetInt("removed", int64(t.Removed))
			sp.Set("catalog", t.CatalogInsert.String())
			sp.Set("indexing", t.ComponentIndexing.String())
			sp.Set("source access", t.DataSourceAccess.String())
			if err != nil {
				sp.Set("error", err.Error())
			}
			sp.Finish()
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		report.Timings = append(report.Timings, t)
	}
	return report, errors.Join(errs...)
}

// SyncSource (re)synchronizes one source. Catalog OIDs are stable across
// syncs (keyed by source URI); views whose URIs have disappeared are
// deregistered and removed from all indexes and replicas.
//
// The group replica is committed atomically at the end of a successful
// walk: a sync that fails midway (source went down, converter crashed)
// leaves the previous replica intact, so queries keep navigating the
// last good graph — served stale, flagged via DegradedSources.
func (m *Manager) SyncSource(id string) (SyncTiming, error) {
	timing, err := m.syncSource(id)
	m.recordSyncOutcome(id, err)
	return timing, err
}

func (m *Manager) syncSource(id string) (SyncTiming, error) {
	syncStart := time.Now()
	m.mu.RLock()
	src, ok := m.sources[id]
	m.mu.RUnlock()
	if !ok {
		return SyncTiming{}, fmt.Errorf("rvm: unknown source %q", id)
	}

	timing := SyncTiming{Source: id}
	w := &syncWalk{m: m, source: id, timing: &timing,
		viewOID:  make(map[core.ResourceView]catalog.OID),
		expanded: make(map[core.ResourceView]bool),
		seen:     make(map[catalog.OID]bool),
		group:    make(map[catalog.OID][]catalog.OID),
	}

	start := time.Now()
	root, err := src.Root()
	timing.DataSourceAccess += time.Since(start)
	if err != nil {
		return timing, fmt.Errorf("rvm: source %q root: %w", id, err)
	}

	rootOID, err := w.register(root, 0, "", 0)
	if err != nil {
		return timing, err
	}
	if err := w.expandAll(root, rootOID); err != nil {
		return timing, err
	}

	// The walk succeeded: replace the source's slice of the group
	// replica and reverse edges with the newly observed graph. The
	// commit is logged to the WAL before it is applied.
	start = time.Now()
	if err := w.commitReplica(); err != nil {
		return timing, err
	}
	timing.ComponentIndexing += time.Since(start)

	// Deregister views that disappeared from the source.
	for _, oid := range m.catalog.SourceOIDs(id) {
		if !w.seen[oid] {
			if err := m.commit(id, store.Record{Kind: store.KindRemove, OID: oid}); err != nil {
				return timing, err
			}
			timing.Removed++
		}
	}
	m.mu.Lock()
	delete(m.dirty, id)
	m.mu.Unlock()

	m.met.syncs.Inc()
	m.met.syncNs.ObserveSince(syncStart)
	m.met.syncViews.Add(int64(timing.Views))
	m.met.syncRemoved.Add(int64(timing.Removed))
	m.met.views.Set(int64(m.catalog.Count()))
	obs.Logger("rvm").Debug("sync complete",
		"source", id, "views", timing.Views, "removed", timing.Removed,
		"total", time.Since(syncStart))
	return timing, nil
}

// ProcessPending resynchronizes every source marked dirty by change
// notifications (or by MarkDirty), returning the ids it refreshed. This
// is the deterministic core of the Synchronization Manager's
// notification path; StartPolling drives it on a timer for sources that
// cannot push. Like SyncAll, per-source failures are isolated and
// joined; a failing source stays dirty for the next round.
func (m *Manager) ProcessPending() ([]string, error) {
	m.mu.Lock()
	var ids []string
	for id := range m.dirty {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Strings(ids)
	var errs []error
	for _, id := range ids {
		if _, err := m.SyncSource(id); err != nil {
			errs = append(errs, err)
		}
	}
	return ids, errors.Join(errs...)
}

// MarkDirty flags a source for the next ProcessPending, used by callers
// that detect updates out of band.
func (m *Manager) MarkDirty(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirty[id] = true
}

// StartPolling runs ProcessPending on every interval until the returned
// stop function is called — the regular polling the Synchronization
// Manager performs "to synchronize the catalog, replicas and indexes for
// updates that were done bypassing the RVM layer" (§5.2). Every poll
// also marks all sources dirty so that pull-only sources are refreshed.
func (m *Manager) StartPolling(interval time.Duration) (stop func()) {
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-ticker.C:
				for _, id := range m.Sources() {
					m.MarkDirty(id)
				}
				m.ProcessPending()
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

// syncWalk carries the state of one source synchronization.
type syncWalk struct {
	m      *Manager
	source string
	timing *SyncTiming
	// viewOID maps each live view touched in this sync to its OID.
	viewOID map[core.ResourceView]catalog.OID
	// expanded marks views whose children have been walked.
	expanded map[core.ResourceView]bool
	// seen collects the OIDs observed, for removal detection.
	seen map[catalog.OID]bool
	// group buffers the group edges observed during the walk; they are
	// committed to the manager's replica only when the whole walk
	// succeeds, so a failing sync never corrupts the last good graph.
	group map[catalog.OID][]catalog.OID
}

// commitReplica commits the group edges this walk observed as the
// source's new slice of the group replica. With a durability layer the
// edges record is the sync's durable commit point: it is logged (and,
// under the default policy, fsynced) before it is applied.
func (w *syncWalk) commitReplica() error {
	rec := store.Record{Kind: store.KindEdges, Source: w.source}
	parents := make([]catalog.OID, 0, len(w.group))
	for p := range w.group {
		parents = append(parents, p)
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	for _, p := range parents {
		rec.Edges = append(rec.Edges, store.EdgeList{Parent: p, Children: w.group[p]})
	}
	return w.m.commit(w.source, rec)
}

// register assigns (or re-finds) the OID for a view and sends its
// component definitions to the Replica&Indexes module as one upsert
// record. It is idempotent per sync. Added or updated views are logged
// to the WAL before the record is applied; a failed log aborts the
// sync, leaving the previous durable state the recovery target.
func (w *syncWalk) register(v core.ResourceView, parent catalog.OID, parentURI string, ordinal int) (catalog.OID, error) {
	if oid, done := w.viewOID[v]; done {
		return oid, nil
	}
	m := w.m

	// --- Data source access: pull the component values. ---------------
	start := time.Now()
	name := v.Name()
	class := v.Class()
	tc := v.Tuple()
	content := v.Content()
	var text string
	var binary []byte
	var contentSize int64 = -1
	hasContent := !core.IsEmptyContent(content)
	if hasContent {
		if content.Finite() {
			contentSize = content.Size()
			if isTextual(name) {
				b, err := core.ReadAllContent(content, m.opts.MaxContentBytes)
				if err == nil {
					text = string(b)
					if contentSize < 0 {
						contentSize = int64(len(b))
					}
				}
			} else if m.opts.IndexImages {
				b, err := core.ReadAllContent(content, m.opts.MaxContentBytes)
				if err == nil {
					binary = b
				}
			}
		}
	}
	uri, base := "", false
	if item, ok := v.(*sources.Item); ok {
		uri, base = item.URI(), item.IsBase()
	}
	if uri == "" {
		uri = fmt.Sprintf("%s#%d", parentURI, ordinal)
	}
	w.timing.DataSourceAccess += time.Since(start)

	// --- Catalog insert. ----------------------------------------------
	start = time.Now()
	stamp := modStamp(tc, contentSize)
	prev, prevErr := m.catalog.ByURI(w.source, uri)
	ent := catalog.Entry{
		Name:        name,
		Class:       class,
		Source:      w.source,
		URI:         uri,
		Parent:      parent,
		HasTuple:    !tc.IsEmpty(),
		HasContent:  hasContent,
		ContentSize: contentSize,
		Stamp:       stamp,
		Derived:     !base,
	}
	oid := m.catalog.Register(ent)
	ent.OID = oid
	w.timing.CatalogInsert += time.Since(start)

	// --- Versioning journal (§8). ---------------------------------------
	// Each change creates a new version of the dataspace: new URIs are
	// additions; re-registered URIs are updates when any cataloged
	// property changed (unchanged views are not journaled).
	changed := m.journalUpsert(prev, prevErr == nil, ent)

	// --- Write-ahead logging. ------------------------------------------
	// Unchanged re-registrations are not logged: the durable state
	// already carries this exact record (the same fingerprint rule that
	// keeps them out of the change journal and off the broker). They are
	// still re-applied in memory.
	rec := store.Record{Kind: store.KindUpsert,
		View: &store.ViewRecord{Entry: ent, Tuple: tc, Text: text, Binary: binary}}
	if changed {
		if err := m.log(w.source, rec); err != nil {
			return 0, err
		}
	}

	// --- Component indexing. -------------------------------------------
	start = time.Now()
	if err := m.apply(m.live(), rec); err != nil {
		return 0, err
	}
	m.mu.Lock()
	m.views[oid] = v
	m.mu.Unlock()
	w.timing.ComponentIndexing += time.Since(start)

	// Push the change (§4.4.2): only added or updated views flow to the
	// broker, so continuous filters see each change exactly once.
	if changed {
		pv := &PublishedView{ResourceView: v, OID: oid}
		m.broker.Publish("views/"+w.source, pv)
		m.broker.Publish(TopicAllViews, pv)
	}

	w.viewOID[v] = oid
	w.seen[oid] = true
	w.timing.Views++
	return oid, nil
}

// expandAll walks the graph from root iteratively, registering every
// reachable view and buffering the group edges for commitReplica.
func (w *syncWalk) expandAll(root core.ResourceView, rootOID catalog.OID) error {
	m := w.m
	type frame struct {
		v   core.ResourceView
		oid catalog.OID
		uri string
	}
	entry, err := m.catalog.Get(rootOID)
	if err != nil {
		return err
	}
	stack := []frame{{v: root, oid: rootOID, uri: entry.URI}}
	w.expanded[root] = true
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		start := time.Now()
		children, err := childrenBounded(f.v, m.opts.InfinitePrefix)
		w.timing.DataSourceAccess += time.Since(start)
		if err != nil {
			return fmt.Errorf("rvm: expanding %q: %w", core.NameOf(f.v), err)
		}
		var childOIDs []catalog.OID
		for i, c := range children {
			coid, err := w.register(c, f.oid, f.uri, i)
			if err != nil {
				return err
			}
			childOIDs = append(childOIDs, coid)
			if !w.expanded[c] {
				w.expanded[c] = true
				ce, err := m.catalog.Get(coid)
				if err != nil {
					return err
				}
				stack = append(stack, frame{v: c, oid: coid, uri: ce.URI})
			}
		}
		if len(childOIDs) > 0 {
			w.group[f.oid] = childOIDs
		}
	}
	return nil
}

func childrenBounded(v core.ResourceView, prefix int) ([]core.ResourceView, error) {
	g := v.Group()
	var out []core.ResourceView
	for _, part := range []core.Views{g.Set, g.Seq} {
		if part == nil {
			continue
		}
		lim := 0
		if !part.Finite() {
			lim = prefix
		}
		vs, err := core.CollectViews(part, lim)
		if err != nil {
			return out, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

// modStamp derives the update fingerprint of a view: the lastmodified
// tuple attribute when present, falling back to the content size.
func modStamp(tc core.TupleComponent, contentSize int64) string {
	if v, ok := tc.Get("lastmodified"); ok {
		return v.String()
	}
	if contentSize >= 0 {
		return fmt.Sprintf("sz:%d", contentSize)
	}
	return ""
}

// isTextual mirrors the paper's "net input" rule: content that cannot be
// converted to a textual representation (image and media formats) is not
// given to the content index. PDF counts as textual — the prototype
// indexed PDF text.
func isTextual(name string) bool {
	dot := strings.LastIndexByte(name, '.')
	if dot < 0 {
		return true
	}
	switch strings.ToLower(name[dot+1:]) {
	case "jpg", "jpeg", "png", "gif", "bmp", "tiff",
		"mp3", "wav", "ogg", "avi", "mov", "mpg", "mp4",
		"zip", "gz", "tar", "exe", "bin", "iso", "dmg":
		return false
	default:
		return true
	}
}
