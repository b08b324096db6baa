package rvm

import (
	"repro/internal/catalog"
	"repro/internal/store"
)

// This file is the follower half of WAL-shipping replication
// (internal/repl, docs/REPLICATION.md): a read-only manager applies the
// leader's WAL records — in global-LSN order — through apply, the same
// function the leader's sync walks applied them with, so a caught-up
// follower holds exactly the leader's structures. Follower managers run
// without sources and without a store of their own, so the only writer
// is the replication apply loop.

// ApplyRecord applies one shipped WAL record. Re-applying an
// overlapping batch after a crash converges to the same state (apply is
// idempotent). What is follower-only lives here, around the shared
// apply: the catalog entry is written under the leader-assigned OID,
// upserts are journaled with the leader's add/update distinction so the
// follower's change feed and version-keyed caches behave like the
// leader's (a byte-identical re-apply is not journaled), and records
// that carry no per-view journal entry still bump the version.
//
// ApplyRecord is safe under concurrent readers (queries). It is NOT
// safe concurrent with ResetFromState; the repl layer serializes the
// two.
func (m *Manager) ApplyRecord(rec store.Record) error {
	var prev catalog.Entry
	known := false
	if rec.Kind == store.KindUpsert && rec.View != nil {
		var err error
		prev, err = m.catalog.Get(rec.View.Entry.OID)
		known = err == nil
		m.catalog.Put(rec.View.Entry)
	}
	if err := m.apply(m.live(), rec); err != nil {
		return err
	}
	switch rec.Kind {
	case store.KindUpsert:
		m.journalUpsert(prev, known, rec.View.Entry)
	case store.KindEdges, store.KindDropSource, store.KindMeta:
		m.history.bump()
	}
	m.met.views.Set(int64(m.catalog.Count()))
	return nil
}

// ResetFromState discards the Replica & Indexes contents and rebuilds
// them from a full leader state image — the replication fallback when
// the leader's WAL no longer covers the follower's applied LSN. The
// catalog is reset in place (concurrent readers holding the pointer see
// old or new contents, never a mix), but the index swap itself is NOT
// safe concurrent with queries; the repl layer excludes readers for the
// duration.
func (m *Manager) ResetFromState(st *store.State) {
	if st == nil {
		return
	}
	m.catalog.Reset(st.NextOID, st.Entries())
	m.RestoreFromState(st)
	m.history.bump()
}
