package rvm

import (
	"testing"

	"repro/internal/catalog"
)

// TestBulkRestoreEquivalence is the differential pin for the sort-based
// bulk index build: restoring a durable state with RestoreFromState
// (records replayed into the bulk builders) and feeding the same
// records one ApplyRecord at a time into a fresh manager's live indexes
// must leave the two managers indistinguishable to every probe query.
func TestBulkRestoreEquivalence(t *testing.T) {
	leader, st := durableLeader(t)
	state, _ := st.CloneState()

	bulk := NewWithCatalog(Options{ReplicateGroups: true},
		catalog.Rebuild(state.NextOID, state.Entries()))
	bulk.RestoreFromState(state)

	incr := newFollower()
	for _, rec := range state.Records() {
		if err := incr.ApplyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}

	if bulk.Count() == 0 {
		t.Fatal("restore produced an empty manager")
	}
	if got, want := probeDigest(bulk), probeDigest(incr); got != want {
		t.Fatalf("bulk and incremental restores diverge:\nbulk:\n%s\nincremental:\n%s", got, want)
	}
	for _, src := range []string{"filesystem", "email"} {
		want := leader.NetInputBytes(src)
		if b, i := bulk.NetInputBytes(src), incr.NetInputBytes(src); b != want || i != want {
			t.Errorf("net input of %s: bulk %d, incremental %d, leader %d", src, b, i, want)
		}
	}
	// Restoring discards what the module held, so a second restore into
	// the now-populated manager converges on the same contents.
	bulk.RestoreFromState(state)
	if got, want := probeDigest(bulk), probeDigest(incr); got != want {
		t.Fatalf("warm re-restore diverged:\n%s\nvs\n%s", got, want)
	}
	if got, want := bulk.NetInputBytes("filesystem"), leader.NetInputBytes("filesystem"); got != want {
		t.Errorf("warm re-restore net input %d, want %d", got, want)
	}
}
