package rvm

import (
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/textindex"
	"repro/internal/tupleindex"
)

// This file wires the Resource View Manager to the durability layer
// (internal/store): a manager can be rebuilt from a recovered state
// without re-walking any source. The write-ahead half — records are
// logged before they are applied — is apply.go's commit. See
// docs/PERSISTENCE.md.

// Store returns the durability layer the manager logs to (nil when the
// dataspace is in-memory only).
func (m *Manager) Store() storage.Engine { return m.opts.Store }

// Checkpoint compacts the durable state into a fresh snapshot and
// truncates the WAL; a no-op without a store.
func (m *Manager) Checkpoint() error {
	if m.opts.Store == nil {
		return nil
	}
	return m.opts.Store.Snapshot()
}

// StateDigest returns the stable-serialization digest of the durable
// state ("" when the dataspace is in-memory only).
func (m *Manager) StateDigest() string {
	if m.opts.Store == nil {
		return ""
	}
	return m.opts.Store.Digest()
}

// RestoreFromState rebuilds the Replica & Indexes module from a
// recovered durable state — OpenDurable after recovery, or a replica
// installing a full-state image. Whatever the module held is discarded,
// and the state's canonical record sequence is replayed through apply,
// the same code a sync or a shipped record goes through, with the text
// and tuple postings collected by the sort-based bulk builders (one
// spill-sort-merge pass per index instead of per-view insertion) and
// swapped in at the end. The manager's catalog must already hold the
// state's entries (catalog.Rebuild / Reset).
//
// Live views stay unresolved until the sources are re-added and synced;
// queries answer from the replicas meanwhile, exactly as they do for a
// degraded source.
func (m *Manager) RestoreFromState(st *store.State) {
	if st == nil {
		return
	}
	m.mu.Lock()
	m.replicas = newReplicas()
	m.mu.Unlock()
	nameB, contentB, tupleB := textindex.NewBuilder(), textindex.NewBuilder(), tupleindex.NewBuilder()
	sink := indexSink{nameIdx: nameB, contentIdx: contentB, tupleIdx: tupleB}
	for _, rec := range st.Records() {
		// Records() yields meta, upserts and edges only: nothing apply
		// can reject, and no removal that would miss the builders.
		m.apply(sink, rec)
	}
	m.mu.Lock()
	m.nameIdx, m.contentIdx, m.tupleIdx = nameB.Build(), contentB.Build(), tupleB.Build()
	m.mu.Unlock()
	m.met.views.Set(int64(m.catalog.Count()))
}
