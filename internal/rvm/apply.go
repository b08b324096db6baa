package rvm

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/imageindex"
	"repro/internal/store"
	"repro/internal/textindex"
	"repro/internal/tupleindex"
)

// This file is the write side of the Replica & Indexes module. A
// store.Record is the only way anything enters or leaves it: apply
// folds one record into the indexes and replicas, and every writer goes
// through it — the leader's sync appends the record to the durable log
// and then applies it (commit), a follower applies what the leader
// shipped (ApplyRecord), and recovery applies state.Records() into the
// bulk index builders (RestoreFromState). "Leader ≡ follower ≡
// recovered" therefore holds by construction.
//
// The catalog entry of an upserted view is written by whoever owns OID
// assignment before the record is applied — catalog.Register on the
// leader, catalog.Put on a follower, catalog.Rebuild on recovery — so
// apply itself only removes from the catalog.

// indexSink is where applied upserts put their postings: the live
// indexes, or the bulk builders while RestoreFromState replays a state.
// Removals always go to the live indexes; a state's record sequence
// holds none.
type indexSink struct {
	nameIdx, contentIdx interface {
		Add(textindex.DocID, string)
	}
	tupleIdx interface {
		Add(tupleindex.DocID, core.TupleComponent)
	}
}

// live returns the sink over the manager's current indexes.
func (m *Manager) live() indexSink {
	return indexSink{nameIdx: m.nameIdx, contentIdx: m.contentIdx, tupleIdx: m.tupleIdx}
}

// log appends rec to the durable log, if one is configured. A failed
// append aborts the caller before anything in memory changes.
func (m *Manager) log(source string, rec store.Record) error {
	if m.opts.Store == nil {
		return nil
	}
	return m.opts.Store.Append(source, rec)
}

// commit is the leader's write: append, then apply (write-ahead order).
func (m *Manager) commit(source string, rec store.Record) error {
	if err := m.log(source, rec); err != nil {
		return err
	}
	return m.apply(m.live(), rec)
}

// apply folds one record into the Replica & Indexes module. It is
// idempotent: index inserts replace the OID's previous postings, edge
// commits are full replacements, and removals of unknown views are
// no-ops. It takes the same locks queries do, so it is safe under
// concurrent readers.
func (m *Manager) apply(sink indexSink, rec store.Record) error {
	switch rec.Kind {
	case store.KindUpsert:
		if rec.View == nil {
			return fmt.Errorf("rvm: apply: upsert without view")
		}
		m.applyUpsert(sink, rec.View)
	case store.KindRemove:
		m.applyRemove(rec.OID)
	case store.KindEdges:
		m.applyEdges(rec.Source, rec.Edges)
	case store.KindDropSource:
		for _, oid := range m.catalog.SourceOIDs(rec.Source) {
			m.applyRemove(oid)
		}
	case store.KindMeta:
		m.catalog.PinNext(rec.NextOID)
	case store.KindSnapshotEnd:
		// End markers appear only inside snapshot images, never in
		// shipped WAL batches; tolerate them as no-ops.
	default:
		return fmt.Errorf("rvm: apply: unknown record kind %v", rec.Kind)
	}
	return nil
}

// applyUpsert indexes one view's components under its OID and enters it
// in the name and class replicas, replacing whatever the OID held.
func (m *Manager) applyUpsert(sink indexSink, v *store.ViewRecord) {
	e := v.Entry
	oid := e.OID
	sink.nameIdx.Add(textindex.DocID(oid), e.Name)
	if !v.Tuple.IsEmpty() {
		sink.tupleIdx.Add(tupleindex.DocID(oid), v.Tuple)
	}
	if v.Text != "" {
		sink.contentIdx.Add(textindex.DocID(oid), v.Text)
	}
	if len(v.Binary) > 0 && m.opts.IndexImages {
		m.imageIdx.Add(imageindex.DocID(oid), v.Binary)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	lowered := strings.ToLower(e.Name)
	if old, ok := m.nameLower[oid]; ok && old != lowered {
		delete(m.byLowerName[old], oid)
	}
	m.nameRep[oid] = e.Name
	m.nameLower[oid] = lowered
	exact := m.byLowerName[lowered]
	if exact == nil {
		exact = make(map[catalog.OID]struct{})
		m.byLowerName[lowered] = exact
	}
	exact[oid] = struct{}{}
	if old, ok := m.classOf[oid]; ok && old != e.Class {
		delete(m.classRep[old], oid)
	}
	m.classOf[oid] = e.Class
	members := m.classRep[e.Class]
	if members == nil {
		members = make(map[catalog.OID]struct{})
		m.classRep[e.Class] = members
	}
	members[oid] = struct{}{}
	m.setTextLen(e.Source, oid, int64(len(v.Text)))
}

// setTextLen replaces oid's contribution to its source's net input.
// Caller holds m.mu.
func (m *Manager) setTextLen(source string, oid catalog.OID, n int64) {
	m.contentBytes[source] += n - m.textLen[oid]
	if n == 0 {
		delete(m.textLen, oid)
	} else {
		m.textLen[oid] = n
	}
}

// applyRemove deregisters one view from the catalog and every index and
// replica, journaling the removal. Unknown OIDs are a no-op.
func (m *Manager) applyRemove(oid catalog.OID) {
	e, err := m.catalog.Get(oid)
	if err != nil {
		return
	}
	m.history.record(ChangeRecord{Kind: ChangeRemoved, OID: oid, Source: e.Source, URI: e.URI, Name: e.Name})
	m.catalog.Remove(oid)
	m.nameIdx.Delete(textindex.DocID(oid))
	m.contentIdx.Delete(textindex.DocID(oid))
	m.tupleIdx.Delete(tupleindex.DocID(oid))
	m.imageIdx.Delete(imageindex.DocID(oid))
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.nameRep, oid)
	if lowered, ok := m.nameLower[oid]; ok {
		delete(m.byLowerName[lowered], oid)
		delete(m.nameLower, oid)
	}
	delete(m.views, oid)
	if class, ok := m.classOf[oid]; ok {
		delete(m.classRep[class], oid)
		delete(m.classOf, oid)
	}
	m.setTextLen(e.Source, oid, 0)
	for _, child := range m.groupRep[oid] {
		m.parentRep[child] = removeOID(m.parentRep[child], oid)
	}
	delete(m.groupRep, oid)
	for _, parent := range m.parentRep[oid] {
		m.groupRep[parent] = removeOID(m.groupRep[parent], oid)
	}
	delete(m.parentRep, oid)
}

// applyEdges atomically replaces the source's slice of the group
// replica, and the reverse edges derived from it, with one sync walk's
// committed graph.
func (m *Manager) applyEdges(source string, edges []store.EdgeList) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, oid := range m.catalog.SourceOIDs(source) {
		for _, child := range m.groupRep[oid] {
			m.parentRep[child] = removeOID(m.parentRep[child], oid)
		}
		delete(m.groupRep, oid)
	}
	for _, el := range edges {
		if m.opts.ReplicateGroups {
			// Copied: the record's slices belong to whoever built it (on
			// recovery, the store's shadow state).
			m.groupRep[el.Parent] = append([]catalog.OID(nil), el.Children...)
		}
		for _, c := range el.Children {
			m.parentRep[c] = appendUniqueOID(m.parentRep[c], el.Parent)
		}
	}
}

func appendUniqueOID(list []catalog.OID, oid catalog.OID) []catalog.OID {
	for _, o := range list {
		if o == oid {
			return list
		}
	}
	return append(list, oid)
}

func removeOID(list []catalog.OID, oid catalog.OID) []catalog.OID {
	out := list[:0]
	for _, o := range list {
		if o != oid {
			out = append(out, o)
		}
	}
	return out
}
