package idm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/rvm"
	"repro/internal/store"
)

// This file is the facade over internal/repl: WAL-shipping read
// replicas — the first rung of the "networks of P2P iMeMex instances"
// the paper's conclusion plans. A durable System acts as leader
// (ReplicationLeader); a Replica is a durable System too — same storage
// engine, same recovery, an ordinary data directory — whose log is fed
// by a repl.Follower with the leader's records instead of by local
// sources. It replays every record through the rvm apply path and
// serves read-only queries — including as a lag-aware Peer in a
// Federation. See docs/REPLICATION.md.

// Replication type aliases, following the facade's alias pattern.
type (
	// ReplLeader ships a durable store's WAL; *System yields one via
	// ReplicationLeader.
	ReplLeader = repl.Leader
	// ReplTransport moves batches from leader to follower.
	ReplTransport = repl.Transport
	// ReplBatch is one shipment (incremental frames or full state).
	ReplBatch = repl.Batch
	// ReplWireTransport round-trips shipments through the wire encoding.
	ReplWireTransport = repl.WireTransport
	// ReplChaosTransport mutates shipments per armed fault rules.
	ReplChaosTransport = repl.ChaosTransport
)

// ErrBadShipment marks a replication batch the follower rejected
// wholesale; re-pulling retries.
var ErrBadShipment = repl.ErrBadBatch

// ReplicationLeader returns a WAL-shipping leader over this System's
// durable store, or nil for an in-memory System (there is no log to
// ship).
func (s *System) ReplicationLeader() *ReplLeader {
	if s.store == nil {
		return nil
	}
	return repl.NewLeader(s.store)
}

// Replica is a read-only follower: a full System (catalog, indexes,
// group replica, query engine) fed exclusively by shipped WAL records
// instead of local sources. Queries on a lagging replica are flagged
// Stale with a "replication lag" entry in StaleSources — the same
// staleness contract degraded sources use — so federated scatter-gather
// surfaces follower lag without special cases.
//
// A Replica is safe for concurrent use: queries take a read lock, and
// Pull takes the write lock (a full-state reset swaps every index, which
// must exclude readers; incremental applies just ride along).
type Replica struct {
	mu  sync.RWMutex
	sys *System
	fl  *repl.Follower
	t   repl.Transport
}

var (
	_ Peer       = (*Replica)(nil)
	_ TracedPeer = (*Replica)(nil)
)

// replicaApplier adapts the follower's record stream to the manager's
// replay path.
type replicaApplier struct{ mgr *rvm.Manager }

func (a replicaApplier) Apply(rec store.Record) error { return a.mgr.ApplyRecord(rec) }

func (a replicaApplier) Reset(st *store.State) error {
	a.mgr.ResetFromState(st)
	return nil
}

// OpenReplica opens (creating if needed) the replica's data directory
// exactly as OpenDurable would — cfg.Fsync tunes its storage engine,
// the directory is locked, the shipped records already logged there are
// recovered and the catalog and indexes rebuilt — and attaches a follower that feeds the engine from t. cfg.DataDir
// is ignored in favour of dir. After Close the directory opens with
// OpenDurable like any other.
func OpenReplica(dir string, t ReplTransport, cfg Config) (*Replica, error) {
	if dir == "" || t == nil {
		return nil, fmt.Errorf("idm: replica needs a directory and a transport")
	}
	cfg.DataDir = dir
	sys, _, err := OpenDurable(cfg)
	if err != nil {
		return nil, err
	}
	fl := repl.NewFollower(sys.store, repl.FollowerOptions{Applier: replicaApplier{mgr: sys.mgr}})
	return &Replica{sys: sys, fl: fl, t: t}, nil
}

// Pull ships and applies one batch from the leader, returning how many
// records were newly applied. Rejected batches return ErrBadShipment
// (nothing was applied); an injected crash leaves the replica dead
// until reopened, like a killed process.
func (r *Replica) Pull() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fl.Pull(r.t)
}

// CatchUp pulls until the replica has applied everything the leader
// advertises.
func (r *Replica) CatchUp() error {
	for {
		n, err := r.Pull()
		if err != nil {
			return err
		}
		if n == 0 {
			if lag := r.fl.Lag(); lag > 0 {
				return fmt.Errorf("idm: replica stalled %d LSNs behind leader", lag)
			}
			return nil
		}
	}
}

// StartTailing pulls on every interval until the returned stop function
// is called; pull errors are logged and retried on the next tick
// (transient rejections heal themselves, a dead follower stays dead).
func (r *Replica) StartTailing(interval time.Duration) (stop func()) {
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
				if _, err := r.Pull(); err != nil {
					obs.Logger("repl").Warn("tail pull failed", "err", err)
				}
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

// staleTag renders the StaleSources entry a lagging replica attaches.
func staleTag(lag uint64) string { return fmt.Sprintf("replication lag %d", lag) }

// flagLag copies res (cached results are shared; never mutate them) and
// marks it stale when the replica lags its leader.
func (r *Replica) flagLag(res *Result) *Result {
	lag := r.fl.Lag()
	if lag == 0 {
		return res
	}
	cp := *res
	cp.Stale = true
	cp.StaleSources = append(append([]string(nil), res.StaleSources...), staleTag(lag))
	return &cp
}

// Query evaluates q against the replica's indexes. Results carry
// Stale=true (with a "replication lag N" StaleSources entry) whenever
// the replica has not applied everything the leader last advertised.
func (r *Replica) Query(q string) (*Result, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	res, err := r.sys.Query(q)
	if err != nil {
		return nil, err
	}
	return r.flagLag(res), nil
}

// Trace is Query with the engine's span trace, so a federated query
// over replicas still renders one merged trace.
func (r *Replica) Trace(q string) (*Result, *obs.Trace, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	res, tr, err := r.sys.Trace(q)
	if err != nil {
		return nil, tr, err
	}
	return r.flagLag(res), tr, nil
}

// AppliedLSN returns the replica's durable applied position.
func (r *Replica) AppliedLSN() uint64 { return r.fl.AppliedLSN() }

// LeaderLSN returns the leader position last advertised to the replica.
func (r *Replica) LeaderLSN() uint64 { return r.fl.LeaderLSN() }

// Lag returns how many LSNs the replica trails the advertised leader
// position.
func (r *Replica) Lag() uint64 { return r.fl.Lag() }

// StateDigest returns the digest of the replica's durable state (its
// storage engine's); it equals the leader's StateDigest exactly when
// fully caught up.
func (r *Replica) StateDigest() string { return r.fl.Digest() }

// Checkpoint compacts the replica's log like System.Checkpoint does a
// leader's, so a restart replays only what was shipped since. It takes
// the write lock: a checkpoint must not interleave with a pull.
func (r *Replica) Checkpoint() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sys.Checkpoint()
}

// System exposes the replica's underlying read-only System (metrics,
// sizes, EXPLAIN); callers must not add sources to it.
func (r *Replica) System() *System { return r.sys }

// Close closes the replica's storage engine and unlocks its directory.
func (r *Replica) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fl.Close()
}
