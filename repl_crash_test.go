package idm_test

import (
	"errors"
	"fmt"
	"testing"

	idm "repro"
	"repro/internal/repl"
)

// durableLeader runs the deterministic fixture sync on a durable System
// and returns it (still open, ready to ship its WAL).
func durableLeader(t *testing.T) (*idm.System, string) {
	t.Helper()
	dir := t.TempDir()
	sys, _, err := idm.OpenDurable(durableConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.AddFileSystem("filesystem", durableFS()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	return sys, dir
}

// TestReplicaCrashMatrix is the crash-a-follower matrix: a replica is
// killed at every shipped-record boundary (crash before appending record
// k to its local WAL) and mid-record (crash after half of record k is
// written), then reopened from its directory; catch-up must converge to
// the leader's StateDigest every time. The crashed replica's recovered
// prefix must also be byte-equal — via the stable serialization digest —
// to the reference state after k-1 records, proving the follower's
// durability has the same last-good-prefix contract as the leader's.
func TestReplicaCrashMatrix(t *testing.T) {
	leaderSys, leaderDir := durableLeader(t)
	leader := leaderSys.ReplicationLeader()
	if leader == nil {
		t.Fatal("durable system has no replication leader")
	}
	refFinal := leaderSys.StateDigest()
	prefixes := walPrefixDigests(t, leaderDir)
	n := len(prefixes) - 1
	if n < 5 {
		t.Fatalf("leader logged only %d records; fixture too small for a matrix", n)
	}
	t.Logf("replica crash matrix over %d shipped records × 2 crash modes", n)

	modes := []struct {
		name  string
		point string
	}{
		{"boundary", repl.FaultApply},       // crash before record k is logged
		{"mid-record", repl.FaultApplyTorn}, // crash after half of record k
	}
	for _, mode := range modes {
		for k := 1; k <= n; k++ {
			t.Run(fmt.Sprintf("%s/record-%02d", mode.name, k), func(t *testing.T) {
				dir := t.TempDir()
				inj := idm.NewFaultInjector(1)
				inj.Add(idm.FaultRule{Point: mode.point, Kind: idm.FaultError, After: k - 1, Times: 1})
				rep, err := idm.OpenReplica(dir, leader, idm.Config{Parallelism: 1, Faults: inj})
				if err != nil {
					t.Fatal(err)
				}
				err = rep.CatchUp()
				if !errors.Is(err, repl.ErrCrashed) {
					t.Fatalf("injected crash did not kill the replica: %v", err)
				}
				// Dead means dead: the crashed replica refuses further
				// pulls until reopened, like a killed process.
				if _, err := rep.Pull(); !errors.Is(err, repl.ErrCrashed) {
					t.Fatalf("dead replica pulled anyway: %v", err)
				}
				rep.Close()

				// Reopen. Both crash modes lose exactly record k and
				// everything after it; the recovered durable state must be
				// the reference prefix of k-1 records.
				re, err := idm.OpenReplica(dir, leader, idm.Config{Parallelism: 1})
				if err != nil {
					t.Fatalf("replica recovery: %v", err)
				}
				defer re.Close()
				if got := re.StateDigest(); got != prefixes[k-1] {
					t.Fatalf("recovered digest != reference prefix after %d records\n got %s\nwant %s",
						k-1, got, prefixes[k-1])
				}
				if got := re.AppliedLSN(); got != uint64(k-1) {
					t.Fatalf("recovered applied LSN %d, want %d", got, k-1)
				}
				// Catch-up converges on the leader's exact state.
				if err := re.CatchUp(); err != nil {
					t.Fatalf("post-recovery catch-up: %v", err)
				}
				if got := re.StateDigest(); got != refFinal {
					t.Fatalf("caught-up replica diverged from leader\n got %s\nwant %s", got, refFinal)
				}
				if re.Lag() != 0 {
					t.Fatalf("caught-up replica reports lag %d", re.Lag())
				}
			})
		}
	}
}

// TestReplicaQueriesConverge pins query-level equivalence after a crash
// and recovery: the reopened, caught-up replica answers exactly like the
// leader.
func TestReplicaQueriesConverge(t *testing.T) {
	leaderSys, _ := durableLeader(t)
	leader := leaderSys.ReplicationLeader()

	dir := t.TempDir()
	inj := idm.NewFaultInjector(1)
	inj.Add(idm.FaultRule{Point: repl.FaultApply, Kind: idm.FaultError, After: 4, Times: 1})
	rep, err := idm.OpenReplica(dir, leader, idm.Config{Parallelism: 1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CatchUp(); !errors.Is(err, repl.ErrCrashed) {
		t.Fatalf("injected crash did not kill the replica: %v", err)
	}
	rep.Close()

	re, err := idm.OpenReplica(dir, leader, idm.Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.CatchUp(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`//*`,
		`//*.tex`,
		`//VLDB2006//Introduction[class="latex_section"]`,
		`//["dataspaces"]`,
	} {
		want, err := leaderSys.Query(q)
		if err != nil {
			t.Fatalf("leader %q: %v", q, err)
		}
		got, err := re.Query(q)
		if err != nil {
			t.Fatalf("replica %q: %v", q, err)
		}
		if got.Stale {
			t.Fatalf("caught-up replica answered %q stale: %v", q, got.StaleSources)
		}
		if len(got.Items) != len(want.Items) {
			t.Fatalf("%q: replica %d items, leader %d", q, len(got.Items), len(want.Items))
		}
		for i := range want.Items {
			if got.Items[i].OID != want.Items[i].OID || got.Items[i].Path != want.Items[i].Path {
				t.Fatalf("%q row %d: replica (%d, %s) leader (%d, %s)", q, i,
					got.Items[i].OID, got.Items[i].Path, want.Items[i].OID, want.Items[i].Path)
			}
		}
	}
}
