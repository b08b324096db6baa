// Package storage is the pluggable storage-engine seam between the
// Resource View Manager and the durability layer. It defines the Engine
// interface every backend satisfies — the append/tail/snapshot/install/
// drop/digest contract the RVM persist path, the facade and both ends of
// replication (the leader ships from an engine, the follower logs into
// one) are written against — and a factory that selects a backend for a
// data directory.
//
// Two backends ship today:
//
//   - BackendWAL (internal/store): checksummed per-source WAL segments
//     merged by global LSN plus atomic snapshots. The write-optimized
//     default.
//   - BackendCompact (compact.go): one immutable, sorted, checksummed
//     segment file per source, rebuilt by snapshot-compaction, plus a
//     single append tail. Read-optimized; cold starts scan per-source
//     segments in ascending-OID order, which feeds the counting bulk
//     index build directly.
//
// Both backends share the record, frame and snapshot formats of
// internal/store, its one frame-append sequence (store.WriteFrame), the
// fault-injection points (the crash matrix runs unchanged against
// either), the exclusive data-dir lock, and the replication surfaces
// (internal/repl ships from either and follows into either). The
// conformance suite (conformance_test.go) pins the shared semantics.
// See docs/PERSISTENCE.md.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// Backend selects a storage engine implementation.
type Backend int

const (
	// BackendWAL is the write-optimized default: per-source WAL segments
	// plus atomic snapshots (internal/store).
	BackendWAL Backend = iota
	// BackendCompact is the read-optimized engine: one immutable sorted
	// segment per source, rebuilt by compaction, plus an append tail.
	BackendCompact
)

// String renders the backend name ParseBackend accepts.
func (b Backend) String() string {
	switch b {
	case BackendWAL:
		return "wal"
	case BackendCompact:
		return "compact"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend parses a backend name; "" selects the default (wal).
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(s) {
	case "", "wal":
		return BackendWAL, nil
	case "compact":
		return BackendCompact, nil
	default:
		return 0, fmt.Errorf("storage: unknown backend %q (wal|compact)", s)
	}
}

// Options tunes an engine; the non-Backend fields carry the same
// semantics as store.Options.
type Options struct {
	// Backend selects the engine implementation (default BackendWAL).
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

// Engine is the storage contract every backend satisfies. All methods
// are safe for concurrent use, and every implementation shares the
// recovery contract of internal/store: recover the last good prefix,
// truncate torn tails with a warning, never panic on corrupt input, and
// refuse every operation with store.ErrCrashed after an injected crash
// or unrecoverable I/O error.
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
	// Snapshot compacts the durable state (WAL: snapshot + truncate;
	// compact: rewrite per-source segments + truncate the tail).
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

// Both backends satisfy the contract.
var (
	_ Engine = (*store.Store)(nil)
	_ Engine = (*CompactStore)(nil)
)

// Open opens (creating if needed) the engine selected by opts.Backend
// at dir and recovers its state. Open takes an exclusive lock on the
// directory — a second open of the same dir fails until the first
// engine closes or its process dies — and refuses a directory the
// other backend created: the layouts are disjoint, so a mismatched
// open would silently start empty next to the existing data.
func Open(dir string, opts Options) (Engine, store.RecoveryInfo, error) {
	if err := checkLayout(dir, opts.Backend); err != nil {
		return nil, store.RecoveryInfo{}, err
	}
	switch opts.Backend {
	case BackendCompact:
		c, info, err := OpenCompact(dir, opts)
		if err != nil {
			return nil, info, err
		}
		return c, info, nil
	default:
		s, info, err := store.Open(dir, store.Options{Sync: opts.Sync, Metrics: opts.Metrics, Faults: opts.Faults})
		if err != nil {
			return nil, info, err
		}
		return s, info, nil
	}
}

// checkLayout refuses to open dir with backend b when the directory
// holds the other backend's layout (the compact backend's "compact"
// subdirectory vs. the WAL backend's "wal" subdirectory or snapshot
// files). Without this a mismatched -backend flag would lock the
// directory, see none of the existing files, and report an empty
// dataspace — indistinguishable from data loss.
func checkLayout(dir string, b Backend) error {
	has := func(name string) bool {
		_, err := os.Stat(filepath.Join(dir, name))
		return err == nil
	}
	switch b {
	case BackendCompact:
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if has("wal") || len(snaps) > 0 {
			return fmt.Errorf("storage: %s was created by the wal backend; reopen it with Backend=wal", dir)
		}
	default:
		if has("compact") {
			return fmt.Errorf("storage: %s was created by the compact backend; reopen it with Backend=compact", dir)
		}
	}
	return nil
}
