package repl

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/store"
)

func upsert(oid catalog.OID, source, uri string) store.Record {
	return store.Record{Kind: store.KindUpsert, View: &store.ViewRecord{Entry: catalog.Entry{
		OID: oid, Name: filepath.Base(uri), Class: "file", Source: source,
		URI: uri, ContentSize: -1,
	}}}
}

// newLeaderStore opens a store, appends n records across two sources
// (with an edge commit and a removal mixed in), and returns it with its
// leader.
func newLeaderStore(t *testing.T, n int) (*store.Store, *Leader) {
	t.Helper()
	st, _, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	seedLeader(t, st, n, 0)
	return st, NewLeader(st)
}

// seedLeader appends n records, numbering OIDs from base+1.
func seedLeader(t *testing.T, st *store.Store, n, base int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		oid := catalog.OID(base + i)
		var rec store.Record
		src := "fs"
		switch {
		case i%7 == 0:
			rec = store.Record{Kind: store.KindEdges, Source: "fs",
				Edges: []store.EdgeList{{Parent: oid - 1, Children: []catalog.OID{oid - 2}}}}
		case i%5 == 0:
			rec = store.Record{Kind: store.KindRemove, OID: oid - 1}
		case i%2 == 0:
			src = "mail"
			rec = upsert(oid, "mail", fmt.Sprintf("/inbox/%d", i))
		default:
			rec = upsert(oid, "fs", fmt.Sprintf("/f/%d", i))
		}
		if err := st.Append(src, rec); err != nil {
			t.Fatal(err)
		}
	}
}

// OpenFollower opens the storage engine on dir and puts a follower on
// it: what idm.OpenReplica does, minus the rvm replay target.
func OpenFollower(dir string, opts FollowerOptions) (*Follower, store.RecoveryInfo, error) {
	eng, info, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, info, err
	}
	return NewFollower(eng, opts), info, nil
}

func openTestFollower(t *testing.T, dir string, opts FollowerOptions) (*Follower, store.RecoveryInfo) {
	t.Helper()
	f, info, err := OpenFollower(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, info
}

// catchUp pulls until the follower stops advancing.
func catchUp(t *testing.T, f *Follower, tr Transport) int {
	t.Helper()
	pulls := 0
	for {
		n, err := f.Pull(tr)
		if err != nil {
			t.Fatalf("pull %d: %v", pulls, err)
		}
		pulls++
		if n == 0 {
			return pulls
		}
	}
}

func TestFollowerConverges(t *testing.T) {
	st, leader := newLeaderStore(t, 20)
	f, _ := openTestFollower(t, t.TempDir(), FollowerOptions{})
	catchUp(t, f, leader)
	if f.Digest() != st.Digest() {
		t.Fatal("follower digest != leader digest after catch-up")
	}
	if f.AppliedLSN() != leader.LSN() {
		t.Fatalf("applied %d, leader at %d", f.AppliedLSN(), leader.LSN())
	}
	if f.Lag() != 0 {
		t.Fatalf("lag %d after catch-up", f.Lag())
	}
}

func TestFollowerMultiBatchCatchUp(t *testing.T) {
	st, leader := newLeaderStore(t, 20)
	leader.SetMaxBatch(3)
	f, _ := openTestFollower(t, t.TempDir(), FollowerOptions{})

	// The first capped pull leaves the follower lagging, and the lag is
	// advertised — the staleness witness the federation surfaces.
	if _, err := f.Pull(leader); err != nil {
		t.Fatal(err)
	}
	if f.Lag() == 0 {
		t.Fatal("capped pull reported no lag")
	}
	pulls := catchUp(t, f, leader)
	if pulls < 5 {
		t.Fatalf("capped catch-up took only %d pulls", pulls)
	}
	if f.Digest() != st.Digest() {
		t.Fatal("multi-batch catch-up diverged")
	}
}

func TestSnapshotFallback(t *testing.T) {
	st, leader := newLeaderStore(t, 12)
	// Compaction deletes the WAL a fresh follower would need: the next
	// ship must fall back to a full-state image.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	seedLeader(t, st, 6, 100)

	f, _ := openTestFollower(t, t.TempDir(), FollowerOptions{})
	b, err := leader.Ship(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Snapshot == nil {
		t.Fatal("compacted leader shipped frames, want full-state image")
	}
	catchUp(t, f, leader)
	if f.Digest() != st.Digest() {
		t.Fatal("snapshot fallback diverged")
	}
	// Post-install shipping is incremental again.
	seedLeader(t, st, 3, 200)
	b, err = leader.Ship(f.AppliedLSN())
	if err != nil {
		t.Fatal(err)
	}
	if b.Snapshot != nil {
		t.Fatal("caught-up follower was shipped a snapshot")
	}
	catchUp(t, f, leader)
	if f.Digest() != st.Digest() {
		t.Fatal("post-install incremental diverged")
	}
}

func TestFollowerRestartResumes(t *testing.T) {
	st, leader := newLeaderStore(t, 20)
	leader.SetMaxBatch(8)
	dir := t.TempDir()
	f, err := func() (*Follower, error) {
		f, _, err := OpenFollower(dir, FollowerOptions{})
		return f, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Pull(leader); err != nil {
		t.Fatal(err)
	}
	mid := f.AppliedLSN()
	if mid == 0 || mid >= leader.LSN() {
		t.Fatalf("partial pull applied %d of %d", mid, leader.LSN())
	}
	f.Close()

	// Reopen: the local WAL replays to the same position, and pulling
	// resumes from there rather than from zero.
	f2, info := openTestFollower(t, dir, FollowerOptions{})
	if f2.AppliedLSN() != mid {
		t.Fatalf("recovered applied %d, want %d", f2.AppliedLSN(), mid)
	}
	if info.WALRecords == 0 {
		t.Fatal("recovery replayed no local WAL records")
	}
	catchUp(t, f2, leader)
	if f2.Digest() != st.Digest() {
		t.Fatal("restart + catch-up diverged")
	}

	// Restart after a snapshot install recovers from the image.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	seedLeader(t, st, 4, 300)
	dir3 := t.TempDir()
	f3, _ := openTestFollower(t, dir3, FollowerOptions{})
	catchUp(t, f3, leader)
	f3.Close()
	f4, info4 := openTestFollower(t, dir3, FollowerOptions{})
	if info4.SnapshotSeq == 0 {
		t.Fatal("no state image recovered after snapshot install")
	}
	if f4.Digest() != st.Digest() {
		t.Fatal("image recovery diverged")
	}
}

// badTransport returns a fixed batch.
type badTransport struct{ b *Batch }

func (bt badTransport) Ship(fromLSN uint64) (*Batch, error) { return bt.b, nil }

func TestFollowerRejectsInvalidBatches(t *testing.T) {
	st, leader := newLeaderStore(t, 10)
	good, err := leader.Ship(0)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(good.Frames)
	if len(bounds) < 3 {
		t.Fatalf("fixture too small: %d frames", len(bounds))
	}
	clone := func() *Batch { b := *good; return &b }

	cases := map[string]*Batch{}
	// Wrong count: header disagrees with the decoded frames.
	b := clone()
	b.Count++
	cases["count"] = b
	// Dropped middle frame: count mismatch again, detected wholesale.
	b = clone()
	i := bounds[len(bounds)/2]
	b.Frames = append(append([]byte(nil), good.Frames[:i[0]]...), good.Frames[i[1]:]...)
	cases["drop"] = b
	// Reordered frames: LSNs no longer strictly increasing.
	b = clone()
	a, z := bounds[0], bounds[1]
	swapped := append([]byte(nil), good.Frames[z[0]:z[1]]...)
	swapped = append(swapped, good.Frames[a[0]:a[1]]...)
	b.Frames = append(swapped, good.Frames[z[1]:]...)
	cases["reorder"] = b
	// Torn tail: the final frame is cut mid-record.
	b = clone()
	last := bounds[len(bounds)-1]
	b.Frames = append([]byte(nil), good.Frames[:last[0]+(last[1]-last[0])/2]...)
	cases["torn"] = b
	// Wrong ToLSN header.
	b = clone()
	b.ToLSN += 5
	cases["tolsn"] = b
	// Gap: the batch starts above the follower's applied position.
	b = clone()
	b.FromLSN = 4
	cases["gap"] = b
	// Torn snapshot image: fails to decode, rejected the same way.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap, err := leader.Ship(0)
	if err != nil || snap.Snapshot == nil {
		t.Fatalf("no snapshot fallback after compaction: %v", err)
	}
	b = &Batch{}
	*b = *snap
	b.Snapshot = b.Snapshot[:len(b.Snapshot)/2]
	cases["snapshot"] = b

	for name, bad := range cases {
		f, _ := openTestFollower(t, t.TempDir(), FollowerOptions{})
		n, err := f.Pull(badTransport{b: bad})
		if !errors.Is(err, ErrBadBatch) {
			t.Errorf("%s: err = %v, want ErrBadBatch", name, err)
		}
		if n != 0 || f.AppliedLSN() != 0 {
			t.Errorf("%s: rejected batch applied %d records (LSN %d)", name, n, f.AppliedLSN())
		}
		// Rejection is not a crash: the follower heals by re-pulling from
		// a clean transport.
		catchUp(t, f, leader)
		if f.Digest() != st.Digest() {
			t.Errorf("%s: recovery pull diverged", name)
		}
	}
}

func TestOverlappingBatchIdempotent(t *testing.T) {
	st, leader := newLeaderStore(t, 10)
	f, _ := openTestFollower(t, t.TempDir(), FollowerOptions{})
	catchUp(t, f, leader)

	// Re-ship everything from zero: a legal overlapping batch. Nothing
	// is newly applied, nothing is re-logged, and the digest holds.
	full, err := leader.Ship(0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Pull(badTransport{b: full})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("overlap re-applied %d records as new", n)
	}
	if f.Digest() != st.Digest() {
		t.Fatal("overlap re-apply diverged")
	}
}

func TestWireTransportRoundTrip(t *testing.T) {
	st, leader := newLeaderStore(t, 15)
	wire := &WireTransport{Inner: leader}
	f, _ := openTestFollower(t, t.TempDir(), FollowerOptions{})
	catchUp(t, f, wire)
	if f.Digest() != st.Digest() {
		t.Fatal("wire round-trip diverged")
	}
	// Snapshot shipments survive the wire too.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f2, _ := openTestFollower(t, t.TempDir(), FollowerOptions{})
	catchUp(t, f2, wire)
	if f2.Digest() != st.Digest() {
		t.Fatal("wire snapshot round-trip diverged")
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	_, leader := newLeaderStore(t, 5)
	good, err := leader.Ship(0)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeBatch(good)
	rt, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if rt.FromLSN != good.FromLSN || rt.ToLSN != good.ToLSN || rt.Count != good.Count ||
		rt.LeaderLSN != good.LeaderLSN || len(rt.Frames) != len(good.Frames) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", rt, good)
	}

	bad := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC!\x00"),
		append([]byte(batchMagic), 9), // unknown kind
		append([]byte(batchMagic), 0), // missing varints
		enc[:len(enc)-1],              // truncated payload: length header disagrees
		append(append([]byte{}, enc...), 1, 2, 3), // trailing junk
	}
	for i, data := range bad {
		if _, err := DecodeBatch(data); err == nil {
			t.Errorf("bad input %d decoded without error", i)
		}
	}
}

func TestChaosTransportSeeded(t *testing.T) {
	st, leader := newLeaderStore(t, 30)
	leader.SetMaxBatch(4)
	inj := fault.New(7)
	for _, p := range []string{FaultShipDrop, FaultShipDup, FaultShipReorder, FaultShipTorn} {
		inj.Add(fault.Rule{Point: p, Kind: fault.Error, P: 0.3})
	}
	chaos := &ChaosTransport{Inner: &WireTransport{Inner: leader}, Faults: inj}
	f, _ := openTestFollower(t, t.TempDir(), FollowerOptions{})
	rejected := 0
	for i := 0; i < 500; i++ {
		n, err := f.Pull(chaos)
		if errors.Is(err, ErrBadBatch) {
			rejected++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 && f.Lag() == 0 {
			break
		}
	}
	if f.Digest() != st.Digest() {
		t.Fatal("chaos catch-up diverged")
	}
	if inj.FiredTotal() == 0 {
		t.Fatal("chaos injected nothing")
	}
	if rejected == 0 {
		t.Fatal("no mutated batch was rejected — chaos not exercised")
	}
}

// TestConcurrentShipStress races live appends and checkpoints on the
// leader store against a tailing follower on the same directory; run
// under -race (scripts/check.sh does) it proves TailSince's locking.
func TestConcurrentShipStress(t *testing.T) {
	st, _, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	leader := NewLeader(st)
	leader.SetMaxBatch(5)
	f, _ := openTestFollower(t, t.TempDir(), FollowerOptions{})

	const writers, perWriter = 4, 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := fmt.Sprintf("src%d", w)
			for i := 0; i < perWriter; i++ {
				oid := catalog.OID(w*perWriter + i + 1)
				if err := st.Append(src, upsert(oid, src, fmt.Sprintf("/%s/%d", src, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Checkpoints race the appends and the tailing follower.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := st.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// The follower tails continuously while the log grows and compacts.
	var tailErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.Pull(leader); err != nil {
				tailErr = err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	if tailErr != nil {
		t.Fatal(tailErr)
	}
	catchUp(t, f, leader)
	if f.Digest() != st.Digest() {
		t.Fatal("concurrent stress diverged")
	}
	if f.AppliedLSN() != st.NextLSN()-1 {
		t.Fatalf("applied %d, leader next %d", f.AppliedLSN(), st.NextLSN())
	}
}
