package rvm

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/store"
)

// recordingEngine is a storage.Engine fake that records the write calls
// the manager makes. Only Append and DropSource are implemented; any
// other call panics on the nil embedded interface.
type recordingEngine struct {
	storage.Engine
	calls []string
}

func (e *recordingEngine) Append(source string, rec store.Record) error {
	e.calls = append(e.calls, fmt.Sprintf("Append(%s, %v)", source, rec.Kind))
	return nil
}

func (e *recordingEngine) DropSource(source string, nextOID catalog.OID) error {
	e.calls = append(e.calls, fmt.Sprintf("DropSource(%s, %d)", source, nextOID))
	return nil
}

// TestRemoveSourceIsOneDropRecord pins what RemoveSource sends to the
// durability layer: the drop itself and nothing after it — no per-view
// remove records for a source the engine has already dropped.
func TestRemoveSourceIsOneDropRecord(t *testing.T) {
	eng := &recordingEngine{}
	m, _, _ := testSetup(t, Options{ReplicateGroups: true, Store: eng})
	if _, err := m.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if len(eng.calls) == 0 {
		t.Fatal("sync logged nothing")
	}
	eng.calls = nil
	before := m.Count()
	v := m.Version()
	if err := m.RemoveSource("email"); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("DropSource(email, %d)", m.Catalog().NextOID())
	if len(eng.calls) != 1 || eng.calls[0] != want {
		t.Fatalf("RemoveSource made store calls %q, want exactly [%s]", eng.calls, want)
	}
	// In memory every view of the source went, each one journaled.
	if len(m.Catalog().SourceOIDs("email")) != 0 || m.Count() == 0 || m.Count() == before {
		t.Fatalf("count %d → %d after RemoveSource", before, m.Count())
	}
	if got := m.Version() - v; got != uint64(before-m.Count()) {
		t.Errorf("version moved by %d for %d removed views", got, before-m.Count())
	}
}

// TestNetInputBytesTracksContent: a view's contribution to its source's
// net input is replaced when it is re-applied and returned when it is
// removed, on every path into the module.
func TestNetInputBytesTracksContent(t *testing.T) {
	st, _, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	leader, fs, _ := testSetup(t, Options{ReplicateGroups: true, Store: st})
	sync := func() {
		t.Helper()
		if _, err := leader.SyncAll(); err != nil {
			t.Fatal(err)
		}
	}
	sync()
	base := leader.NetInputBytes("filesystem")
	sync()
	if got := leader.NetInputBytes("filesystem"); got != base {
		t.Fatalf("second sync moved net input %d → %d", base, got)
	}

	// Updating one file changes the figure by exactly the delta.
	const old, grown = "database tuning notes", "database tuning notes, second edition"
	fs.WriteFile("/Projects/PIM/notes.txt", []byte(grown))
	sync()
	if got, want := leader.NetInputBytes("filesystem"), base+int64(len(grown)-len(old)); got != want {
		t.Fatalf("net input after update = %d, want %d", got, want)
	}
	// Deleting it returns its share.
	fs.Remove("/Projects/PIM/notes.txt")
	sync()
	if got, want := leader.NetInputBytes("filesystem"), base-int64(len(old)); got != want {
		t.Fatalf("net input after delete = %d, want %d", got, want)
	}

	// A follower and a recovered manager report the leader's values.
	fl := newFollower()
	replicate(t, st, fl, 0)
	state, _ := st.CloneState()
	rec := NewWithCatalog(Options{ReplicateGroups: true}, catalog.Rebuild(state.NextOID, state.Entries()))
	rec.RestoreFromState(state)
	for _, src := range []string{"filesystem", "email"} {
		want := leader.NetInputBytes(src)
		if got := fl.NetInputBytes(src); got != want {
			t.Errorf("follower net input of %s = %d, leader %d", src, got, want)
		}
		if got := rec.NetInputBytes(src); got != want {
			t.Errorf("recovered net input of %s = %d, leader %d", src, got, want)
		}
	}

	if err := leader.RemoveSource("filesystem"); err != nil {
		t.Fatal(err)
	}
	if got := leader.NetInputBytes("filesystem"); got != 0 {
		t.Fatalf("net input of a removed source = %d", got)
	}
	replicate(t, st, fl, 0)
	if got := fl.NetInputBytes("filesystem"); got != 0 {
		t.Fatalf("follower net input of a removed source = %d", got)
	}
}

// loggingEngine forwards to a real engine and keeps, as WAL frames, every
// record the manager wrote through it — its whole log, which the
// engine's own DropSource and Snapshot would otherwise delete.
type loggingEngine struct {
	storage.Engine
	log []byte
}

func (e *loggingEngine) keep(recs ...store.Record) error {
	for _, rec := range recs {
		var err error
		if e.log, err = store.AppendFrame(e.log, 1, rec); err != nil {
			return err
		}
	}
	return nil
}

func (e *loggingEngine) Append(source string, rec store.Record) error {
	if err := e.Engine.Append(source, rec); err != nil {
		return err
	}
	return e.keep(rec)
}

func (e *loggingEngine) DropSource(source string, nextOID catalog.OID) error {
	if err := e.Engine.DropSource(source, nextOID); err != nil {
		return err
	}
	return e.keep(store.Record{Kind: store.KindDropSource, Source: source},
		store.Record{Kind: store.KindMeta, NextOID: nextOID})
}

// TestLeaderIsReplayOfItsLog: the leader's in-memory module is what its
// own log replays to. After syncs, an update, a removal and a source
// drop, a fresh manager fed the log record by record is
// indistinguishable from the leader. The replay sees the dropped
// source's records too, so it ends with the same tombstones in its
// indexes as the leader.
func TestLeaderIsReplayOfItsLog(t *testing.T) {
	st, _, err := storage.Open(t.TempDir(), storage.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := &loggingEngine{Engine: st}
	leader, fs, _ := testSetup(t, Options{ReplicateGroups: true, Store: eng})
	sync := func() {
		t.Helper()
		if _, err := leader.SyncAll(); err != nil {
			t.Fatal(err)
		}
	}
	sync()
	fs.WriteFile("/Projects/PIM/notes.txt", []byte("rewritten tuning notes"))
	fs.WriteFile("/Projects/PIM/new.txt", []byte("a later addition"))
	sync()
	fs.Remove("/Projects/PIM/new.txt")
	sync()
	if err := leader.RemoveSource("email"); err != nil {
		t.Fatal(err)
	}

	replay := newFollower()
	res, err := store.ReplayBytes(eng.log, func(_ uint64, rec store.Record) error {
		return replay.ApplyRecord(rec)
	})
	if err != nil || res.Warning != "" {
		t.Fatalf("replaying the leader's log: %v %s", err, res.Warning)
	}
	if got, want := probeDigest(replay), probeDigest(leader); got != want {
		t.Fatalf("replay diverges from the leader:\nleader:\n%s\nreplay:\n%s", want, got)
	}
	if replay.Count() != leader.Count() || leader.Count() == 0 {
		t.Fatalf("count: replay %d, leader %d", replay.Count(), leader.Count())
	}
	if got, want := replay.IndexSizes(), leader.IndexSizes(); got != want {
		t.Errorf("index sizes: replay %+v, leader %+v", got, want)
	}
	for _, src := range []string{"filesystem", "email"} {
		if got, want := replay.NetInputBytes(src), leader.NetInputBytes(src); got != want {
			t.Errorf("net input of %s: replay %d, leader %d", src, got, want)
		}
	}
}

// TestNoopResyncLogsNothing: re-synchronizing unchanged sources journals
// nothing and logs nothing but each source's edges commit, so the
// dataspace version (and with it every version-keyed cache) stays put.
func TestNoopResyncLogsNothing(t *testing.T) {
	leader, st := durableLeader(t)
	v, lsn, digest := leader.Version(), st.NextLSN(), probeDigest(leader)
	if _, err := leader.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if got := leader.Version(); got != v {
		t.Errorf("no-op resync moved the version %d → %d", v, got)
	}
	// One edges record per source is the sync's commit point; no view
	// record may accompany it.
	recs, _, _, err := st.TailSince(lsn - 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range recs {
		if tr.Rec.Kind != store.KindEdges {
			t.Errorf("no-op resync logged a %v record at LSN %d", tr.Rec.Kind, tr.LSN)
		}
	}
	if got, want := len(recs), len(leader.Sources()); got != want {
		t.Errorf("no-op resync logged %d records, want %d edge commits", got, want)
	}
	if got := probeDigest(leader); got != digest {
		t.Errorf("no-op resync changed the probes:\n%s\nvs\n%s", got, digest)
	}
}
