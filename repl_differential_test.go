package idm_test

import (
	"fmt"
	"strings"
	"testing"

	idm "repro"
	"repro/internal/iql"
)

// rowKey renders a result's rows into one canonical comparable string.
func rowKey(res *idm.Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, it := range row {
			fmt.Fprintf(&b, "(%d,%s)", it.OID, it.Path)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestReplicaDifferential is the grammar-driven differential suite: 1000
// generated iQL queries (every production reachable — both axes,
// wildcards, predicates, has(), unions, joins) are evaluated on the
// leader and on three caught-up replicas, one per planner lane (serial
// rule-based, forced-parallel rule-based, adaptive cost-based). Every
// lane must return exactly the leader's rows: replication equivalence
// must hold regardless of how the follower plans its queries.
func TestReplicaDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-generation differential suite")
	}
	t.Run("wal", func(t *testing.T) { replicaDifferential(t, 1000) })
}

func replicaDifferential(t *testing.T, generations int) {
	leaderSys, _ := durableLeader(t)
	leader := leaderSys.ReplicationLeader()

	lanes := []struct {
		name string
		cfg  idm.Config
	}{
		{"serial", idm.WithRulePlanner(idm.Config{Parallelism: 1, Now: fixedNow})},
		{"parallel", idm.WithRulePlanner(idm.Config{Parallelism: 8, Now: fixedNow})},
		{"adaptive", idm.Config{Parallelism: 8, Now: fixedNow}},
	}
	type lane struct {
		name string
		rep  *idm.Replica
	}
	var reps []lane
	for _, l := range lanes {
		rep, err := idm.OpenReplica(t.TempDir(), leader, l.cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		if err := rep.CatchUp(); err != nil {
			t.Fatal(err)
		}
		if rep.StateDigest() != leaderSys.StateDigest() {
			t.Fatalf("lane %s replica not caught up", l.name)
		}
		reps = append(reps, lane{l.name, rep})
	}

	g := iql.NewGen(42, iql.DefaultVocab())
	errQueries := 0
	for i := 0; i < generations; i++ {
		q := g.Query()
		want, wantErr := leaderSys.Query(q)
		if wantErr != nil {
			errQueries++
		}
		for _, l := range reps {
			got, gotErr := l.rep.Query(q)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("gen %d %q: leader err %v, %s replica err %v", i, q, wantErr, l.name, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if got.Stale {
				t.Fatalf("gen %d %q: caught-up %s replica answered stale", i, q, l.name)
			}
			if gk, wk := rowKey(got), rowKey(want); gk != wk {
				t.Fatalf("gen %d %q: %s replica rows diverge\nleader:\n%s\nreplica:\n%s",
					i, q, l.name, wk, gk)
			}
		}
	}
	if errQueries == generations {
		t.Fatal("every generated query errored; the generator is broken")
	}
	t.Logf("%d generations × %d lanes, %d error-parity queries", generations, len(reps), errQueries)
}
