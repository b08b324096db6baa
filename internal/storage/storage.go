// Package storage is the storage-engine seam between the Resource View
// Manager and the durability layer. It defines the Engine interface —
// the append/tail/snapshot/install/drop/digest contract the RVM persist
// path, the facade and both ends of replication (the leader ships from
// an engine, the follower logs into one) are written against — and Open,
// which opens the one engine for a data directory: internal/store's
// checksummed per-source WAL segments merged by global LSN plus atomic
// snapshots. Tests fake the seam (a recording Engine) to pin what the
// RVM writes. The conformance suite (conformance_test.go) pins the
// contract. See docs/PERSISTENCE.md.
package storage

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// Backend named a storage engine when there were two.
//
// Deprecated: ignored; Open always opens the WAL+snapshot engine.
type Backend int

// BackendCompact named the removed compacted-segment engine.
//
// Deprecated: ignored; Open always opens the WAL+snapshot engine.
const BackendCompact Backend = 1

// Options tunes an engine; the fields carry the semantics of
// store.Options.
type Options struct {
	// Deprecated: ignored; Open always opens the WAL+snapshot engine.
	Backend Backend
	// Sync selects the fsync policy (default store.SyncOnCommit).
	Sync store.SyncPolicy
	// Metrics receives the engine's instruments; nil leaves it
	// uninstrumented.
	Metrics *obs.Registry
	// Faults is consulted at the store.Fault* points; nil injects
	// nothing.
	Faults *fault.Injector
}

// Engine is the storage contract. All methods are safe for concurrent
// use, and the engine keeps the recovery contract of internal/store:
// recover the last good prefix, truncate torn tails with a warning,
// never panic on corrupt input, and refuse every operation with
// store.ErrCrashed after an injected crash or unrecoverable I/O error.
type Engine interface {
	// Append logs one record for source (source "" targets the engine's
	// meta stream), applies it to the shadow state, and fsyncs according
	// to the policy — write-ahead order: the record is durable before
	// the caller touches any in-memory replica. It is AppendAt at
	// NextLSN().
	Append(source string, rec store.Record) error
	// AppendAt is Append at a caller-assigned LSN: a replication follower
	// logs each shipped record at the LSN its leader gave it. Gaps are
	// legal; an LSN below NextLSN() is refused with the engine untouched.
	AppendAt(source string, lsn uint64, rec store.Record) error
	// Flush fsyncs everything appended so far (a no-op under SyncNever);
	// a follower calls it once per shipped batch.
	Flush() error
	// Install replaces the durable state with the full-state image st
	// resuming at nextLSN, through the Snapshot code path (a follower's
	// fallback when its leader compacted the history it needed). An
	// image below NextLSN() is refused. The engine owns st afterwards.
	Install(st *store.State, nextLSN uint64) error
	// DropSource durably removes a source: the drop (plus a Meta record
	// pinning the OID counter) is committed so the source's views never
	// resurrect, and its per-source storage is deleted.
	DropSource(source string, nextOID catalog.OID) error
	// Snapshot compacts the durable state: a snapshot is written and
	// the log below it truncated.
	Snapshot() error
	// SnapshotSeq identifies the newest compaction (0 = none yet);
	// monotonically increasing.
	SnapshotSeq() uint64
	// State returns the shadow state: the graph a recovery of the
	// current directory would reconstruct. Callers must not mutate it.
	State() *store.State
	// Digest returns the stable-serialization digest of the durable
	// state.
	Digest() string
	// Dir returns the data directory.
	Dir() string
	// NextLSN returns the LSN the next appended record will receive.
	NextLSN() uint64
	// BaseLSN returns the lowest LSN the log still covers (older history
	// lives only in compacted form).
	BaseLSN() uint64
	// TailSince returns every record with LSN > fromLSN in global-LSN
	// order plus the next LSN; ok is false when compaction dropped the
	// history below fromLSN+1 and the caller must fall back to a
	// full-state transfer.
	TailSince(fromLSN uint64) ([]store.TailRecord, uint64, bool, error)
	// CloneState returns a deep copy of the shadow state and the next
	// LSN — a consistent full-state image for replication fallback.
	CloneState() (*store.State, uint64)
	// Close flushes, releases the data-dir lock and makes the engine
	// unusable.
	Close() error
}

var _ Engine = (*store.Store)(nil)

// Open opens (creating if needed) the engine at dir and recovers its
// state. Open takes an exclusive lock on the directory — a second open
// of the same dir fails until the first engine closes or its process
// dies. It refuses a directory written by the removed compact backend:
// none of its files is read by this engine, so opening it would lock
// the directory and report an empty dataspace next to the existing
// data.
func Open(dir string, opts Options) (Engine, store.RecoveryInfo, error) {
	if _, err := os.Stat(filepath.Join(dir, "compact")); err == nil {
		return nil, store.RecoveryInfo{}, fmt.Errorf(
			"storage: %s was written by the compact backend, which was removed; there is no migration (re-create the dataspace from its sources)", dir)
	}
	s, info, err := store.Open(dir, store.Options{Sync: opts.Sync, Metrics: opts.Metrics, Faults: opts.Faults})
	if err != nil {
		return nil, info, err
	}
	return s, info, nil
}
