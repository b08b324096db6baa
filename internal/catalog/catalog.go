// Package catalog implements the Resource View Catalog of §5.2 of the
// iDM paper: the central registry in which every resource view managed by
// the Resource View Manager is recorded under a stable OID, together with
// the metadata the Replica&Indexes module and the query processor need
// (class, data source, URI within the source, structural parent, and
// component-presence flags). It substitutes for the Apache Derby
// instance of the paper's prototype; the durable store (internal/store)
// persists its entries and OID counter, and Rebuild restores them.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// OID is the stable catalog identifier of a resource view.
type OID uint64

// ErrNotFound is returned when an OID or URI is not registered.
var ErrNotFound = errors.New("catalog: entry not found")

// Entry is the catalog record of one resource view.
type Entry struct {
	OID OID
	// Name is the view's η component (may be empty).
	Name string
	// Class is the resource view class name (may be empty).
	Class string
	// Source identifies the data source the view came from.
	Source string
	// URI locates the view within its source; unique per source when
	// non-empty (e.g. a filesystem path or mail folder/UID).
	URI string
	// Parent is the OID of the primary structural parent, or 0.
	Parent OID
	// HasTuple and HasContent record component presence.
	HasTuple   bool
	HasContent bool
	// ContentSize is the known χ size in bytes, or -1.
	ContentSize int64
	// Stamp is a lightweight modification fingerprint (e.g. the
	// last-modified time from the tuple component); the
	// Synchronization Manager compares it to detect updates.
	Stamp string
	// Derived marks views obtained by converting content components
	// (e.g. XML or LaTeX subgraphs) rather than base items — the
	// distinction Table 2 of the paper reports.
	Derived bool
}

// Catalog is the resource view catalog. The zero value is not usable;
// create one with New. Catalog is safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	next    OID
	entries map[OID]*Entry
	byURI   map[string]OID // key: source + "\x00" + uri
	bySrc   map[string]map[OID]struct{}
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		entries: make(map[OID]*Entry),
		byURI:   make(map[string]OID),
		bySrc:   make(map[string]map[OID]struct{}),
	}
}

func uriKey(source, uri string) string { return source + "\x00" + uri }

// Register records an entry and returns its assigned OID. The entry's
// OID field is ignored on input. Registering a (source, URI) pair that
// already exists replaces the previous entry, keeping its OID stable —
// re-synchronizing a data source must not re-identify its views.
func (c *Catalog) Register(e Entry) OID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.URI != "" {
		if oid, ok := c.byURI[uriKey(e.Source, e.URI)]; ok {
			e.OID = oid
			c.entries[oid] = &e
			return oid
		}
	}
	c.next++
	e.OID = c.next
	c.entries[e.OID] = &e
	if e.URI != "" {
		c.byURI[uriKey(e.Source, e.URI)] = e.OID
	}
	src := c.bySrc[e.Source]
	if src == nil {
		src = make(map[OID]struct{})
		c.bySrc[e.Source] = src
	}
	src[e.OID] = struct{}{}
	return e.OID
}

// Put records an entry under the OID it already carries — the
// replication apply path, where the leader assigned the OID and the
// follower must reproduce it exactly. The OID counter is raised so a
// later promotion cannot reuse leader-assigned OIDs. If a different
// entry previously held the same OID with another URI, the stale URI
// mapping is removed.
func (c *Catalog) Put(e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[e.OID]; ok {
		if old.URI != "" && (old.URI != e.URI || old.Source != e.Source) {
			delete(c.byURI, uriKey(old.Source, old.URI))
		}
		if old.Source != e.Source {
			if src := c.bySrc[old.Source]; src != nil {
				delete(src, e.OID)
				if len(src) == 0 {
					delete(c.bySrc, old.Source)
				}
			}
		}
	}
	c.entries[e.OID] = &e
	if e.URI != "" {
		c.byURI[uriKey(e.Source, e.URI)] = e.OID
	}
	src := c.bySrc[e.Source]
	if src == nil {
		src = make(map[OID]struct{})
		c.bySrc[e.Source] = src
	}
	src[e.OID] = struct{}{}
	if e.OID > c.next {
		c.next = e.OID
	}
}

// PinNext raises the OID counter to at least next (replication applies
// the leader's Meta records through it; it never lowers the counter).
func (c *Catalog) PinNext(next OID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if next > c.next {
		c.next = next
	}
}

// Reset replaces the catalog's contents in place — unlike Rebuild it
// keeps the Catalog value (and its mutex) so concurrent readers holding
// the pointer observe either the old or the new contents, never a torn
// mix. Replication full-state transfers use it.
func (c *Catalog) Reset(next OID, entries []Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next = next
	c.entries = make(map[OID]*Entry, len(entries))
	c.byURI = make(map[string]OID, len(entries))
	c.bySrc = make(map[string]map[OID]struct{})
	for i := range entries {
		e := entries[i]
		if e.OID > c.next {
			c.next = e.OID
		}
		c.entries[e.OID] = &e
		if e.URI != "" {
			c.byURI[uriKey(e.Source, e.URI)] = e.OID
		}
		src := c.bySrc[e.Source]
		if src == nil {
			src = make(map[OID]struct{})
			c.bySrc[e.Source] = src
		}
		src[e.OID] = struct{}{}
	}
}

// Get returns the entry registered under oid.
func (c *Catalog) Get(oid OID) (Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[oid]
	if !ok {
		return Entry{}, fmt.Errorf("%w: oid %d", ErrNotFound, oid)
	}
	return *e, nil
}

// ByURI returns the entry registered for the (source, uri) pair.
func (c *Catalog) ByURI(source, uri string) (Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	oid, ok := c.byURI[uriKey(source, uri)]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %s %s", ErrNotFound, source, uri)
	}
	return *c.entries[oid], nil
}

// Remove deletes an entry.
func (c *Catalog) Remove(oid OID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[oid]
	if !ok {
		return fmt.Errorf("%w: oid %d", ErrNotFound, oid)
	}
	delete(c.entries, oid)
	if e.URI != "" {
		delete(c.byURI, uriKey(e.Source, e.URI))
	}
	if src := c.bySrc[e.Source]; src != nil {
		delete(src, oid)
		if len(src) == 0 {
			delete(c.bySrc, e.Source)
		}
	}
	return nil
}

// NextOID returns the last OID handed out; persistence records it so
// removed sources never cause OID reuse after a restart.
func (c *Catalog) NextOID() OID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.next
}

// Rebuild reconstructs a catalog from persisted entries — the recovery
// path of the durability layer (internal/store). next is the last OID
// handed out before the snapshot; it is raised to the maximum entry OID
// if the entries run ahead of it.
func Rebuild(next OID, entries []Entry) *Catalog {
	c := New()
	c.Reset(next, entries)
	return c
}

// Count returns the number of registered entries.
func (c *Catalog) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// All returns every entry in ascending OID order.
func (c *Catalog) All() []Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OID < out[j].OID })
	return out
}

// Sources returns the registered data source names in sorted order.
func (c *Catalog) Sources() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.bySrc))
	for s := range c.bySrc {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// SourceOIDs returns the OIDs registered for a data source in ascending
// order.
func (c *Catalog) SourceOIDs(source string) []OID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]OID, 0, len(c.bySrc[source]))
	for oid := range c.bySrc[source] {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SourceStats summarizes a data source's registered views — the numbers
// Table 2 of the paper reports per source.
type SourceStats struct {
	// Base counts views representing base items of the source.
	Base int
	// Derived counts views derived from content (XML/LaTeX subgraphs).
	Derived int
	// DerivedByClassPrefix breaks derived views down by class name
	// prefix ("xml", "latex", ...).
	DerivedByClassPrefix map[string]int
	// ContentBytes sums the known content sizes of base views.
	ContentBytes int64
	// Views is the total view count of the source (Base + Derived) —
	// the per-source cardinality the query planner consumes.
	Views int
	// Classes counts the distinct classes among the source's views.
	Classes int
}

// StatsFor computes per-source statistics.
func (c *Catalog) StatsFor(source string) SourceStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := SourceStats{DerivedByClassPrefix: make(map[string]int)}
	classes := make(map[string]struct{})
	for oid := range c.bySrc[source] {
		e := c.entries[oid]
		if e.Class != "" {
			classes[e.Class] = struct{}{}
		}
		if e.Derived {
			st.Derived++
			st.DerivedByClassPrefix[classPrefix(e.Class)]++
		} else {
			st.Base++
			if e.ContentSize > 0 {
				st.ContentBytes += e.ContentSize
			}
		}
	}
	st.Views = st.Base + st.Derived
	st.Classes = len(classes)
	return st
}

func classPrefix(class string) string {
	for _, p := range []string{"xml", "latex", "tex", "figure", "environment"} {
		if len(class) >= len(p) && class[:len(p)] == p {
			if p == "tex" || p == "figure" || p == "environment" {
				return "latex"
			}
			return p
		}
	}
	return "other"
}

// SizeBytes estimates the catalog's memory footprint for Table 3.
func (c *Catalog) SizeBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for _, e := range c.entries {
		n += 64 + int64(len(e.Name)+len(e.Class)+len(e.Source)+len(e.URI))
	}
	n += int64(len(c.byURI)) * 24
	return n
}
