package rvm

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
)

// This file implements the two §8 follow-ups the paper singles out as
// "strongly simplified once a data model like iDM is in place":
//
// Versioning — logically, each change creates a new version of the whole
// dataspace. The manager keeps a monotonically increasing dataspace
// version and a change journal; every register/update/removal performed
// by the Synchronization Manager appends a record.
//
// Lineage — the history of transformations that originated a resource
// view. Derived views record which base item and which Content2iDM
// converter produced them; explicit derivations (e.g. file copies) may
// be recorded by callers.

// ChangeKind classifies journal records.
type ChangeKind int

// Journal record kinds.
const (
	ChangeAdded ChangeKind = iota
	ChangeUpdated
	ChangeRemoved
)

func (k ChangeKind) String() string {
	switch k {
	case ChangeAdded:
		return "added"
	case ChangeUpdated:
		return "updated"
	case ChangeRemoved:
		return "removed"
	default:
		return fmt.Sprintf("changekind(%d)", int(k))
	}
}

// ChangeRecord is one entry of the dataspace change journal.
type ChangeRecord struct {
	// Version is the dataspace version this change created.
	Version uint64
	Kind    ChangeKind
	OID     catalog.OID
	Source  string
	URI     string
	Name    string
}

// history holds the versioning and lineage state of a manager.
type history struct {
	mu      sync.RWMutex
	version uint64
	journal []ChangeRecord
	// derivations records explicit lineage edges: dst ← src with a
	// transformation label.
	derivations map[catalog.OID][]Derivation
}

// Derivation is one explicit lineage edge.
type Derivation struct {
	From catalog.OID
	How  string
}

func newHistory() *history {
	return &history{derivations: make(map[catalog.OID][]Derivation)}
}

// bump advances the dataspace version without a journal entry — the
// replication apply path uses it for changes that carry no per-view
// journal record (edge commits, source drops, counter pins), so
// version-keyed query and plan caches still invalidate.
func (h *history) bump() {
	h.mu.Lock()
	h.version++
	h.mu.Unlock()
}

func (h *history) record(r ChangeRecord) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.version++
	r.Version = h.version
	h.journal = append(h.journal, r)
}

// journalUpsert journals an applied upsert as an addition (the OID was
// unknown) or an update (a cataloged property of prev changed) and
// reports whether it was either. An unchanged re-registration is not
// journaled, so a no-op re-sync leaves the dataspace version alone.
func (m *Manager) journalUpsert(prev catalog.Entry, known bool, e catalog.Entry) bool {
	kind := ChangeAdded
	if known {
		if prev.Name == e.Name && prev.Class == e.Class &&
			prev.ContentSize == e.ContentSize && prev.Stamp == e.Stamp {
			return false
		}
		kind = ChangeUpdated
	}
	m.history.record(ChangeRecord{Kind: kind, OID: e.OID, Source: e.Source, URI: e.URI, Name: e.Name})
	return true
}

// Version returns the current dataspace version: the number of changes
// applied since the manager was created.
func (m *Manager) Version() uint64 {
	m.history.mu.RLock()
	defer m.history.mu.RUnlock()
	return m.history.version
}

// Changes returns every journal record with Version > since, oldest
// first.
func (m *Manager) Changes(since uint64) []ChangeRecord {
	m.history.mu.RLock()
	defer m.history.mu.RUnlock()
	// The journal is version-ordered; binary search would do, but the
	// journal is append-only and versions are dense, so index directly.
	if since >= m.history.version {
		return nil
	}
	start := int(since) // versions are 1-based and dense
	if start > len(m.history.journal) {
		start = len(m.history.journal)
	}
	out := make([]ChangeRecord, len(m.history.journal)-start)
	copy(out, m.history.journal[start:])
	return out
}

// RecordDerivation records an explicit lineage edge: the view dst was
// produced from src by the given transformation (e.g. "copy",
// "reference-reconciliation"). Automatic structural lineage (derived
// views to their base item via the converter) needs no recording.
func (m *Manager) RecordDerivation(dst, src catalog.OID, how string) {
	m.history.mu.Lock()
	defer m.history.mu.Unlock()
	m.history.derivations[dst] = append(m.history.derivations[dst], Derivation{From: src, How: how})
}

// LineageStep is one hop of a view's provenance chain.
type LineageStep struct {
	OID catalog.OID
	// Name and Class identify the view at this hop.
	Name  string
	Class string
	// Relation describes how this hop relates to the previous one:
	// "self", "contained-in", "derived-by <converter>", or an explicit
	// derivation label.
	Relation string
}

// Lineage returns the provenance chain of a view, starting at the view
// itself and walking towards its base item: derived views (XML/LaTeX
// subgraphs) resolve through the Content2iDM converter that produced
// them to the file or attachment they came from; base items walk their
// containment chain to the source root. Explicit derivations recorded
// with RecordDerivation are appended after the structural chain.
func (m *Manager) Lineage(oid catalog.OID) ([]LineageStep, error) {
	var steps []LineageStep
	e, err := m.catalog.Get(oid)
	if err != nil {
		return nil, err
	}
	steps = append(steps, LineageStep{OID: e.OID, Name: e.Name, Class: e.Class, Relation: "self"})
	cur := e
	for depth := 0; cur.Parent != 0 && depth < 256; depth++ {
		parent, err := m.catalog.Get(cur.Parent)
		if err != nil {
			break
		}
		relation := "contained-in"
		if cur.Derived && !parent.Derived {
			// Crossing from the derived subgraph into the base item:
			// this is where the converter ran.
			relation = "derived-by " + converterFor(cur.Class)
		}
		steps = append(steps, LineageStep{
			OID: parent.OID, Name: parent.Name, Class: parent.Class, Relation: relation,
		})
		cur = parent
	}
	m.history.mu.RLock()
	for _, d := range m.history.derivations[oid] {
		if src, err := m.catalog.Get(d.From); err == nil {
			steps = append(steps, LineageStep{
				OID: src.OID, Name: src.Name, Class: src.Class, Relation: d.How,
			})
		}
	}
	m.history.mu.RUnlock()
	return steps, nil
}

// converterFor names the Content2iDM converter that produces views of
// the given class.
func converterFor(class string) string {
	switch {
	case strings.HasPrefix(class, "xml"):
		return "xml2idm"
	case strings.HasPrefix(class, "latex"), class == "texref",
		class == "environment", class == "figure", class == "caption":
		return "latex2idm"
	default:
		return "converter"
	}
}
