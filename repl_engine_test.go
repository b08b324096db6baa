package idm_test

import (
	"strings"
	"testing"

	idm "repro"
)

// These tests pin what a replica gets from logging through the same
// storage engine a leader does: the leader's position arithmetic, its
// directory lock, its checkpoint, and a directory any System can open.

// convergeQueries are the four queries TestReplicaQueriesConverge asks.
var convergeQueries = []string{
	`//*`,
	`//*.tex`,
	`//VLDB2006//Introduction[class="latex_section"]`,
	`//["dataspaces"]`,
}

// assertAnswersLike asserts got answers the converge queries exactly
// like the leader, and not stale.
func assertAnswersLike(t *testing.T, leaderSys *idm.System, got interface {
	Query(string) (*idm.Result, error)
}) {
	t.Helper()
	for _, q := range convergeQueries {
		want, err := leaderSys.Query(q)
		if err != nil {
			t.Fatalf("leader %q: %v", q, err)
		}
		res, err := got.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if res.Stale {
			t.Fatalf("%q answered stale: %v", q, res.StaleSources)
		}
		if gk, wk := rowKey(res), rowKey(want); gk != wk {
			t.Fatalf("%q rows diverge\nleader:\n%s\ngot:\n%s", q, wk, gk)
		}
	}
}

// TestReplicaNoPhantomLagAfterLeaderRestart pins the resume position
// end to end: a leader that checkpoints and restarts must come back at
// the LSN it left, or a byte-identical caught-up replica is told of a
// write that does not exist, fails CatchUp and flags every answer stale.
func TestReplicaNoPhantomLagAfterLeaderRestart(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		leaderSys, leaderDir := durableLeader(t)
		repDir := t.TempDir()
		rep, err := idm.OpenReplica(repDir, leaderSys.ReplicationLeader(), idm.Config{Parallelism: 1, Now: fixedNow})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.CatchUp(); err != nil {
			t.Fatal(err)
		}
		applied := rep.AppliedLSN()
		rep.Close()

		if err := leaderSys.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		leaderSys.Close()
		leaderSys, _, err = idm.OpenDurable(durableConfig(leaderDir, nil))
		if err != nil {
			t.Fatal(err)
		}
		defer leaderSys.Close()

		rep, err = idm.OpenReplica(repDir, leaderSys.ReplicationLeader(), idm.Config{Parallelism: 1, Now: fixedNow})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		if err := rep.CatchUp(); err != nil {
			t.Fatalf("caught-up replica of a restarted leader: %v", err)
		}
		if rep.Lag() != 0 || rep.AppliedLSN() != applied || rep.LeaderLSN() != applied {
			t.Fatalf("lag %d, applied %d, leader %d; want 0, %d, %d",
				rep.Lag(), rep.AppliedLSN(), rep.LeaderLSN(), applied, applied)
		}
		if rep.StateDigest() != leaderSys.StateDigest() {
			t.Fatal("replica digest != restarted leader digest")
		}
		assertAnswersLike(t, leaderSys, rep)
	})
}

// TestReplicaDirLocked pins the directory lock: a second OpenReplica on
// a live replica directory fails naming the holder instead of appending
// behind the first one's back.
func TestReplicaDirLocked(t *testing.T) {
	leaderSys, _ := durableLeader(t)
	leader := leaderSys.ReplicationLeader()
	dir := t.TempDir()
	rep, err := idm.OpenReplica(dir, leader, idm.Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idm.OpenReplica(dir, leader, idm.Config{Parallelism: 1}); err == nil {
		t.Fatal("second OpenReplica on a live replica directory succeeded")
	} else if !strings.Contains(err.Error(), "locked by pid=") {
		t.Fatalf("double open does not name the holder: %v", err)
	}
	rep.Close()
	rep, err = idm.OpenReplica(dir, leader, idm.Config{Parallelism: 1})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	rep.Close()
}

// TestReplicaCheckpoint pins that a replica's log is bounded like a
// leader's: after a checkpoint a restart replays nothing, lands on the
// same position and digest, and tailing carries on from there.
func TestReplicaCheckpoint(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		leaderSys, _ := durableLeader(t)
		leader := leaderSys.ReplicationLeader()
		dir := t.TempDir()
		cfg := idm.Config{Parallelism: 1, Now: fixedNow}
		rep, err := idm.OpenReplica(dir, leader, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.CatchUp(); err != nil {
			t.Fatal(err)
		}
		applied, digest := rep.AppliedLSN(), rep.StateDigest()
		if err := rep.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		rep.Close()

		// The directory is a data directory: the facade reports what its
		// recovery replayed.
		sys, info, err := idm.OpenDurable(durableConfig(dir, nil))
		if err != nil {
			t.Fatal(err)
		}
		if info.WALRecords != 0 || info.SnapshotSeq == 0 {
			t.Fatalf("checkpointed replica replayed %d records (snapshot %d), want 0 from a snapshot",
				info.WALRecords, info.SnapshotSeq)
		}
		sys.Close()

		rep, err = idm.OpenReplica(dir, leader, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		if rep.AppliedLSN() != applied || rep.StateDigest() != digest {
			t.Fatalf("checkpoint + reopen moved the replica: applied %d -> %d, digest equal %v",
				applied, rep.AppliedLSN(), rep.StateDigest() == digest)
		}
		// A further leader write is pulled and applied.
		if err := leaderSys.RemoveSource("filesystem"); err != nil {
			t.Fatal(err)
		}
		if err := rep.CatchUp(); err != nil {
			t.Fatal(err)
		}
		if rep.AppliedLSN() <= applied {
			t.Fatalf("applied LSN %d did not advance past %d", rep.AppliedLSN(), applied)
		}
		if rep.StateDigest() != leaderSys.StateDigest() {
			t.Fatal("replica diverged after the post-checkpoint pull")
		}
	})
}

// TestReplicaInstallThenRestart pins the applied position across a
// full-state install: the replica of an already-compacted leader is
// shipped an image, restarts, and must resume at exactly the image's
// position — one past it and the leader's next record is skipped.
func TestReplicaInstallThenRestart(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		leaderSys, _ := durableLeader(t)
		if err := leaderSys.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		leader := leaderSys.ReplicationLeader()
		dir := t.TempDir()
		cfg := idm.Config{Parallelism: 1, Now: fixedNow}
		rep, err := idm.OpenReplica(dir, leader, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.CatchUp(); err != nil {
			t.Fatal(err)
		}
		if rep.AppliedLSN() != leader.LSN() || rep.StateDigest() != leaderSys.StateDigest() {
			t.Fatalf("image install: applied %d (leader %d), digest equal %v",
				rep.AppliedLSN(), leader.LSN(), rep.StateDigest() == leaderSys.StateDigest())
		}
		rep.Close()

		rep, err = idm.OpenReplica(dir, leader, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		if rep.AppliedLSN() != leader.LSN() {
			t.Fatalf("restart moved the applied LSN to %d, leader at %d", rep.AppliedLSN(), leader.LSN())
		}
		if err := leaderSys.RemoveSource("filesystem"); err != nil {
			t.Fatal(err)
		}
		if err := rep.CatchUp(); err != nil {
			t.Fatal(err)
		}
		if rep.StateDigest() != leaderSys.StateDigest() {
			t.Fatal("replica skipped a record after install + restart")
		}
	})
}

// TestReplicaDirIsDataDir pins that nothing about a replica directory is
// replica-specific: after CatchUp + Close, OpenDurable recovers the
// leader's digest from it and answers like the leader.
func TestReplicaDirIsDataDir(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		leaderSys, _ := durableLeader(t)
		dir := t.TempDir()
		rep, err := idm.OpenReplica(dir, leaderSys.ReplicationLeader(),
			idm.Config{Parallelism: 1, Now: fixedNow})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.CatchUp(); err != nil {
			t.Fatal(err)
		}
		rep.Close()

		sys, _, err := idm.OpenDurable(durableConfig(dir, nil))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if sys.StateDigest() != leaderSys.StateDigest() {
			t.Fatal("OpenDurable on a replica directory recovered a different digest")
		}
		assertAnswersLike(t, leaderSys, sys)
	})
}
