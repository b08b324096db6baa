package repl

import (
	"fmt"
	"sync"

	"repro/internal/store"
)

// The follower logs through a storage engine, so its crash points and
// its dead state are the engine's: the crash-a-follower matrix arms
// store.FaultAppend (crash before shipped record k is logged) and
// store.FaultTorn (crash after half of it is written) on the engine's
// injector, and a crashed follower answers store.ErrCrashed.
const (
	FaultApply     = store.FaultAppend
	FaultApplyTorn = store.FaultTorn
)

// ErrCrashed is store.ErrCrashed: every pull after an injected crash or
// an unrecoverable I/O error in the follower's engine returns it.
var ErrCrashed = store.ErrCrashed

// Log is the slice of the storage engine a follower writes through:
// append at the leader's LSN, flush once per batch, install a full-state
// image. storage.Engine satisfies it; like LogSource it keeps repl off
// any concrete engine. Recovery, torn-tail truncation, the directory
// lock, the shadow state and its digest are the engine's.
type Log interface {
	// AppendAt logs rec at lsn; it refuses an lsn below NextLSN().
	AppendAt(source string, lsn uint64, rec store.Record) error
	// Flush fsyncs what was appended (by the engine's fsync policy).
	Flush() error
	// Install makes st, resuming at nextLSN, the durable state.
	Install(st *store.State, nextLSN uint64) error
	// NextLSN is one past the highest LSN the log holds — exactly so
	// after a reopen too, which is what lets the follower's applied
	// position be NextLSN()-1 instead of a number of its own.
	NextLSN() uint64
	// Digest is the stable digest of the durable state.
	Digest() string
	// Close flushes and releases the directory.
	Close() error
}

// Applier receives each applied record (and full-state resets) — the
// hook through which the root-level Replica drives the rvm replay path.
// Durability happens before the Applier runs: a crash between the two
// is healed on restart by rebuilding from the engine's recovered state.
type Applier interface {
	Apply(rec store.Record) error
	Reset(st *store.State) error
}

// FollowerOptions tunes a Follower.
type FollowerOptions struct {
	// Applier receives applied records; nil keeps the follower a pure
	// durable tail (tests; the Replica wires one in).
	Applier Applier
}

// Follower is the receiving end of WAL shipping: it validates shipped
// batches, logs the new records through its engine at their leader
// LSNs, and forwards them to the Applier. What is replication-only
// lives here — ship, validate, overlap re-apply, lag accounting; what is
// durable lives in the engine. All methods are safe for concurrent use;
// Pull serializes against itself via the mutex.
type Follower struct {
	log     Log
	applier Applier

	mu        sync.Mutex
	leaderLSN uint64
}

// NewFollower returns a follower writing through log, which it owns
// from here on (Close closes it). The caller rebuilds its replay target
// (catalog, indexes) from the engine's recovered state before the first
// Pull.
func NewFollower(log Log, opts FollowerOptions) *Follower {
	return &Follower{log: log, applier: opts.Applier}
}

// Pull ships one batch from the transport and applies it. A batch that
// fails validation — torn frames, wrong count, non-monotonic LSNs, a
// gap above the applied position — is rejected wholesale (ErrBadBatch)
// before anything is written; re-pulling retries. Overlapping batches
// (FromLSN below the applied position) are legal: the already-applied
// prefix is re-applied through the Applier, exercising its idempotency,
// without being re-logged. Returns the number of records newly applied.
func (f *Follower) Pull(t Transport) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	applied := f.AppliedLSN()
	b, err := t.Ship(applied)
	if err != nil {
		return 0, err
	}
	if b.Snapshot != nil {
		if err := f.installSnapshotLocked(b); err != nil {
			return 0, err
		}
		f.leaderLSN = b.LeaderLSN
		return 1, nil
	}
	if b.FromLSN > applied {
		return 0, fmt.Errorf("%w: batch starts at %d, follower applied %d", ErrBadBatch, b.FromLSN, applied)
	}
	// Decode and validate the whole batch before touching anything.
	var recs []store.TailRecord
	res, err := store.ReplayBytes(b.Frames, func(lsn uint64, rec store.Record) error {
		recs = append(recs, store.TailRecord{LSN: lsn, Rec: rec})
		return nil
	})
	if err != nil {
		return 0, err
	}
	if res.Warning != "" {
		return 0, fmt.Errorf("%w: %s", ErrBadBatch, res.Warning)
	}
	if uint64(len(recs)) != b.Count {
		return 0, fmt.Errorf("%w: header says %d records, decoded %d", ErrBadBatch, b.Count, len(recs))
	}
	prev := b.FromLSN
	for _, r := range recs {
		if r.LSN <= prev {
			return 0, fmt.Errorf("%w: LSN %d after %d (not strictly increasing)", ErrBadBatch, r.LSN, prev)
		}
		prev = r.LSN
	}
	if len(recs) > 0 && recs[len(recs)-1].LSN != b.ToLSN {
		return 0, fmt.Errorf("%w: last LSN %d, header says %d", ErrBadBatch, recs[len(recs)-1].LSN, b.ToLSN)
	}

	logged := 0
	for _, r := range recs {
		if r.LSN > applied {
			// Durability first: log the record at its leader LSN, then
			// fold it in. Every record goes to the engine's meta stream —
			// recovery merges by LSN, so routing cannot change the result.
			if err := f.log.AppendAt("", r.LSN, r.Rec); err != nil {
				return logged, err
			}
			logged++
		}
		// Records at or below the applied position (an overlapping
		// re-ship) still flow through the Applier: its apply path is
		// idempotent and this is where that contract is exercised.
		if f.applier != nil {
			if err := f.applier.Apply(r.Rec); err != nil {
				return logged, err
			}
		}
	}
	if logged > 0 {
		if err := f.log.Flush(); err != nil {
			return logged, err
		}
	}
	f.leaderLSN = b.LeaderLSN
	return logged, nil
}

// installSnapshotLocked installs a full-state image: the engine makes
// it durable and swaps its shadow state (by its own compaction path and
// commit point), then the Applier is reset to it.
func (f *Follower) installSnapshotLocked(b *Batch) error {
	st, nextLSN, err := store.DecodeSnapshot(b.Snapshot)
	if err != nil {
		return fmt.Errorf("%w: snapshot: %v", ErrBadBatch, err)
	}
	if err := f.log.Install(st, nextLSN); err != nil {
		return err
	}
	if f.applier != nil {
		return f.applier.Reset(st)
	}
	return nil
}

// AppliedLSN returns the follower's applied position: the highest LSN
// its engine holds.
func (f *Follower) AppliedLSN() uint64 { return f.log.NextLSN() - 1 }

// LeaderLSN returns the leader position last advertised to this
// follower (0 before the first pull).
func (f *Follower) LeaderLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leaderLSN
}

// Lag returns how many LSNs the follower trails the last advertised
// leader position — the staleness witness the federation surfaces.
func (f *Follower) Lag() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	applied := f.AppliedLSN()
	if f.leaderLSN <= applied {
		return 0
	}
	return f.leaderLSN - applied
}

// Digest returns the digest of the engine's durable state; it equals
// the leader's exactly when the follower has applied the leader's whole
// log.
func (f *Follower) Digest() string { return f.log.Digest() }

// Close closes the engine. The follower is unusable afterwards.
func (f *Follower) Close() error { return f.log.Close() }
