package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/store"
)

// This file is the Engine conformance suite: every test runs against
// the engine Open returns, pinning the append/tail/recover/drop/digest
// contract plus the crash matrix. Another Engine implementation only
// has to pass this suite (and the root-level durability harnesses) to
// be a drop-in.

// lane names the subtest every conformance test runs its engine under.
const lane = "wal"

func upsert(oid catalog.OID, source, uri string) store.Record {
	return store.Record{Kind: store.KindUpsert, View: &store.ViewRecord{Entry: catalog.Entry{
		OID: oid, Name: filepath.Base(uri), Class: "file", Source: source,
		URI: uri, ContentSize: -1,
	}}}
}

func edges(source string, parent catalog.OID, children ...catalog.OID) store.Record {
	return store.Record{Kind: store.KindEdges, Source: source,
		Edges: []store.EdgeList{{Parent: parent, Children: children}}}
}

// workload is a small mixed-record history exercising every record
// kind; sourceOf routes each record the way the RVM would.
func workload() []store.Record {
	return []store.Record{
		upsert(1, "fs", "/a"),
		upsert(2, "fs", "/b"),
		edges("fs", 1, 2),
		upsert(3, "mail", "/inbox/1"),
		edges("mail", 3),
		{Kind: store.KindRemove, OID: 2},
		upsert(4, "fs", "/c"),
		edges("fs", 1, 4),
		{Kind: store.KindMeta, NextOID: 9},
	}
}

func sourceOf(rec store.Record) string {
	switch rec.Kind {
	case store.KindUpsert:
		return rec.View.Entry.Source
	case store.KindEdges:
		return rec.Source
	case store.KindRemove:
		return "fs"
	default:
		return ""
	}
}

func mustOpen(t *testing.T, dir string, opts Options) (Engine, store.RecoveryInfo) {
	t.Helper()
	eng, info, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, info
}

func appendAll(t *testing.T, eng Engine, recs []store.Record) {
	t.Helper()
	for _, rec := range recs {
		if err := eng.Append(sourceOf(rec), rec); err != nil {
			t.Fatal(err)
		}
	}
}

// referenceDigest runs the first n workload records through a clean
// engine and returns its digest — the oracle the
// crash matrix compares recovered states against.
func referenceDigest(t *testing.T, n int) string {
	t.Helper()
	eng, _ := mustOpen(t, t.TempDir(), Options{})
	defer eng.Close()
	appendAll(t, eng, workload()[:n])
	return eng.Digest()
}

func TestConformanceAppendReopenEquivalence(t *testing.T) {
	t.Run(lane, func(t *testing.T) {
		dir := t.TempDir()
		eng, _ := mustOpen(t, dir, Options{})
		appendAll(t, eng, workload())
		want := eng.Digest()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}

		eng2, info := mustOpen(t, dir, Options{})
		defer eng2.Close()
		if got := eng2.Digest(); got != want {
			t.Fatalf("recovered digest %s != shadow digest %s", got, want)
		}
		if len(info.Warnings) != 0 {
			t.Fatalf("clean recovery produced warnings: %v", info.Warnings)
		}
		if st := eng2.State(); len(st.Views) != 3 {
			t.Fatalf("recovered %d views, want 3", len(st.Views))
		}
		if st := eng2.State(); st.NextOID != 9 {
			t.Fatalf("recovered NextOID %d, want 9", st.NextOID)
		}
	})
}

func TestConformanceDeadAfterClose(t *testing.T) {
	t.Run(lane, func(t *testing.T) {
		eng, _ := mustOpen(t, t.TempDir(), Options{})
		eng.Close()
		if err := eng.Append("fs", upsert(1, "fs", "/a")); err == nil {
			t.Fatal("append after close succeeded")
		}
	})
}

func TestConformanceSnapshotCompaction(t *testing.T) {
	t.Run(lane, func(t *testing.T) {
		dir := t.TempDir()
		eng, _ := mustOpen(t, dir, Options{})
		appendAll(t, eng, workload())
		want := eng.Digest()
		if eng.SnapshotSeq() != 0 {
			t.Fatalf("snapshot seq %d before first snapshot", eng.SnapshotSeq())
		}
		if err := eng.Snapshot(); err != nil {
			t.Fatal(err)
		}
		seq := eng.SnapshotSeq()
		if seq == 0 {
			t.Fatal("snapshot seq still 0 after snapshot")
		}
		if eng.BaseLSN() != eng.NextLSN() {
			t.Fatalf("base LSN %d != next LSN %d after compaction", eng.BaseLSN(), eng.NextLSN())
		}
		if got := eng.Digest(); got != want {
			t.Fatalf("compaction changed the digest: %s != %s", got, want)
		}
		// Appends continue; recovery = compacted form + tail.
		if err := eng.Append("fs", upsert(10, "fs", "/post")); err != nil {
			t.Fatal(err)
		}
		if err := eng.Append("fs", edges("fs", 1, 4, 10)); err != nil {
			t.Fatal(err)
		}
		want2 := eng.Digest()
		if want2 == want {
			t.Fatal("digest did not change after post-snapshot append")
		}
		// A second compaction with more history moves the sequence on.
		if err := eng.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if eng.SnapshotSeq() <= seq {
			t.Fatalf("snapshot seq %d did not advance past %d", eng.SnapshotSeq(), seq)
		}
		eng.Close()

		eng2, info := mustOpen(t, dir, Options{})
		defer eng2.Close()
		if got := eng2.Digest(); got != want2 {
			t.Fatalf("recovered digest %s != %s", got, want2)
		}
		if info.SnapshotSeq == 0 {
			t.Fatal("recovery did not report the compaction")
		}
		if len(info.Warnings) != 0 {
			t.Fatalf("clean recovery produced warnings: %v", info.Warnings)
		}
	})
}

func TestConformanceTailSince(t *testing.T) {
	t.Run(lane, func(t *testing.T) {
		eng, _ := mustOpen(t, t.TempDir(), Options{})
		defer eng.Close()
		recs := workload()
		appendAll(t, eng, recs)

		// Full tail from zero: every record in strictly increasing LSN
		// order.
		tail, next, ok, err := eng.TailSince(0)
		if err != nil || !ok {
			t.Fatalf("TailSince(0): ok=%v err=%v", ok, err)
		}
		if len(tail) != len(recs) {
			t.Fatalf("tailed %d records, want %d", len(tail), len(recs))
		}
		if next != eng.NextLSN() {
			t.Fatalf("tail next %d != engine next %d", next, eng.NextLSN())
		}
		for i := 1; i < len(tail); i++ {
			if tail[i].LSN <= tail[i-1].LSN {
				t.Fatalf("tail LSNs not strictly increasing: %d after %d", tail[i].LSN, tail[i-1].LSN)
			}
		}
		// A mid-log cursor resumes exactly after its position.
		mid := tail[4].LSN
		tail2, _, ok, err := eng.TailSince(mid)
		if err != nil || !ok {
			t.Fatalf("TailSince(mid): ok=%v err=%v", ok, err)
		}
		if len(tail2) != len(recs)-5 {
			t.Fatalf("mid tail %d records, want %d", len(tail2), len(recs)-5)
		}
		if tail2[0].LSN <= mid {
			t.Fatalf("mid tail starts at %d, want > %d", tail2[0].LSN, mid)
		}

		// Compaction drops history below the watermark: an old cursor
		// must be told to fall back to a full-state transfer.
		if err := eng.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, err := eng.TailSince(mid); err != nil || ok {
			t.Fatalf("TailSince below base after compaction: ok=%v err=%v, want ok=false", ok, err)
		}
		// The watermark cursor itself still works (empty tail).
		tail3, _, ok, err := eng.TailSince(eng.NextLSN() - 1)
		if err != nil || !ok {
			t.Fatalf("TailSince(at watermark): ok=%v err=%v", ok, err)
		}
		if len(tail3) != 0 {
			t.Fatalf("watermark tail has %d records, want 0", len(tail3))
		}
	})
}

func TestConformanceCloneStateIsolated(t *testing.T) {
	t.Run(lane, func(t *testing.T) {
		eng, _ := mustOpen(t, t.TempDir(), Options{})
		defer eng.Close()
		appendAll(t, eng, workload())
		clone, next := eng.CloneState()
		if next != eng.NextLSN() {
			t.Fatalf("clone next %d != %d", next, eng.NextLSN())
		}
		want := clone.Digest()
		if err := eng.Append("fs", upsert(20, "fs", "/new")); err != nil {
			t.Fatal(err)
		}
		if clone.Digest() != want {
			t.Fatal("append mutated a cloned state")
		}
	})
}

func TestConformanceDropSource(t *testing.T) {
	t.Run(lane, func(t *testing.T) {
		dir := t.TempDir()
		eng, _ := mustOpen(t, dir, Options{})
		appendAll(t, eng, workload())
		seg, ok := eng.(interface{ HasSegment(string) bool })
		if !ok {
			t.Fatalf("%T lacks the HasSegment tooling hook", eng)
		}
		if !seg.HasSegment("mail") {
			t.Fatal("mail has no per-source segment")
		}
		if err := eng.DropSource("mail", 9); err != nil {
			t.Fatal(err)
		}
		if seg.HasSegment("mail") {
			t.Fatal("mail artifact survived DropSource")
		}
		for _, v := range eng.State().Views {
			if v.Entry.Source == "mail" {
				t.Fatalf("dropped source still has view %d", v.Entry.OID)
			}
		}
		if _, ok := eng.State().Edges["mail"]; ok {
			t.Fatal("dropped source still has edges")
		}
		// Re-adding the source after the drop.
		if err := eng.Append("mail", upsert(11, "mail", "/inbox/2")); err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.State().Views[11]; !ok {
			t.Fatal("re-added source's upsert is missing from the state")
		}
		if eng.State().NextOID != 11 {
			t.Fatalf("NextOID %d, want 11", eng.State().NextOID)
		}
		want := eng.Digest()
		eng.Close()

		eng2, _ := mustOpen(t, dir, Options{})
		defer eng2.Close()
		if got := eng2.Digest(); got != want {
			t.Fatalf("recovered digest %s != %s after drop", got, want)
		}
	})
}

// TestConformanceNextLSNStableAcrossCompaction pins the resume position:
// a compaction followed by a restart must not move NextLSN — a skipped
// LSN reads to a caught-up replica as a leader write it never receives.
func TestConformanceNextLSNStableAcrossCompaction(t *testing.T) {
	t.Run(lane, func(t *testing.T) {
		dir := t.TempDir()
		eng, _ := mustOpen(t, dir, Options{})
		appendAll(t, eng, workload())
		want := eng.NextLSN()
		if err := eng.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if got := eng.NextLSN(); got != want {
			t.Fatalf("Snapshot moved NextLSN %d -> %d", want, got)
		}
		eng.Close()
		eng2, _ := mustOpen(t, dir, Options{})
		defer eng2.Close()
		if got := eng2.NextLSN(); got != want {
			t.Fatalf("Snapshot + Close + Open moved NextLSN %d -> %d", want, got)
		}
	})
}

// tailLSNs returns the LSNs TailSince(0) serves.
func tailLSNs(t *testing.T, eng Engine) []uint64 {
	t.Helper()
	tail, _, ok, err := eng.TailSince(0)
	if err != nil || !ok {
		t.Fatalf("TailSince(0): ok=%v err=%v", ok, err)
	}
	var lsns []uint64
	for _, tr := range tail {
		lsns = append(lsns, tr.LSN)
	}
	return lsns
}

// TestConformanceAppendAt pins append-at-LSN, the follower's write: the
// record lands at the LSN it was shipped with, gaps included, and an LSN
// below NextLSN() is refused without hurting the engine.
func TestConformanceAppendAt(t *testing.T) {
	t.Run(lane, func(t *testing.T) {
		dir := t.TempDir()
		eng, _ := mustOpen(t, dir, Options{})
		recs := workload()
		shipped := []uint64{1, 2, 5, 6, 9, 10, 11, 40, 41} // gaps are legal
		for i, rec := range recs {
			if err := eng.AppendAt("", shipped[i], rec); err != nil {
				t.Fatalf("AppendAt(%d): %v", shipped[i], err)
			}
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := eng.NextLSN(); got != 42 {
			t.Fatalf("NextLSN %d after appending at 41, want 42", got)
		}
		if got, want := eng.Digest(), referenceDigest(t, len(recs)); got != want {
			t.Fatalf("digest after AppendAt %s != Append reference %s", got, want)
		}
		for _, low := range []uint64{41, 7, 0} {
			if err := eng.AppendAt("", low, upsert(50, "fs", "/low")); err == nil {
				t.Fatalf("AppendAt(%d) below NextLSN 42 succeeded", low)
			} else if errors.Is(err, store.ErrCrashed) {
				t.Fatalf("refused AppendAt(%d) crashed the engine: %v", low, err)
			}
		}
		// Still alive, still at 42, and Append is AppendAt there.
		if err := eng.Append("fs", upsert(51, "fs", "/next")); err != nil {
			t.Fatalf("engine dead after a refused AppendAt: %v", err)
		}
		shipped = append(shipped, 42)
		if got := tailLSNs(t, eng); fmt.Sprint(got) != fmt.Sprint(shipped) {
			t.Fatalf("tail LSNs %v, want %v", got, shipped)
		}
		want := eng.Digest()
		eng.Close()

		eng2, info := mustOpen(t, dir, Options{})
		defer eng2.Close()
		if len(info.Warnings) != 0 {
			t.Fatalf("clean recovery produced warnings: %v", info.Warnings)
		}
		if got := eng2.Digest(); got != want {
			t.Fatalf("recovered digest %s != %s", got, want)
		}
		if got := eng2.NextLSN(); got != 43 {
			t.Fatalf("recovered NextLSN %d, want 43", got)
		}
		if got := tailLSNs(t, eng2); fmt.Sprint(got) != fmt.Sprint(shipped) {
			t.Fatalf("recovered tail LSNs %v, want %v", got, shipped)
		}
	})
}

// logFiles reads every append-log file (*.wal) under dir, keyed by path.
func logFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".wal") {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestConformanceInstall pins install-image, the follower's full-state
// fallback: the image and its position replace whatever the engine held
// and survive a reopen; a crash before the commit point, or log files a
// crash after it failed to delete, change nothing; an image below
// NextLSN() is refused.
func TestConformanceInstall(t *testing.T) {
	// The image: a leader's state after the full workload, resuming at 30.
	image := func(t *testing.T) (*store.State, string) {
		ref, _ := mustOpen(t, t.TempDir(), Options{})
		defer ref.Close()
		appendAll(t, ref, workload())
		st, _ := ref.CloneState()
		return st, st.Digest()
	}
	// What the follower held before: an unrelated, older history.
	old := []store.Record{upsert(1, "fs", "/a"), upsert(7, "old", "/gone"), edges("old", 7)}

	t.Run(lane, func(t *testing.T) {
		dir := t.TempDir()
		eng, _ := mustOpen(t, dir, Options{})
		appendAll(t, eng, old)
		stale := logFiles(t, dir)
		st, want := image(t)
		if err := eng.Install(st, 30); err != nil {
			t.Fatal(err)
		}
		if got := eng.Digest(); got != want {
			t.Fatalf("digest after install %s != image %s", got, want)
		}
		if eng.NextLSN() != 30 || eng.BaseLSN() != 30 {
			t.Fatalf("after install next=%d base=%d, want 30/30", eng.NextLSN(), eng.BaseLSN())
		}
		if err := eng.Install(st.Clone(), 29); err == nil {
			t.Fatal("image below NextLSN installed")
		} else if errors.Is(err, store.ErrCrashed) {
			t.Fatalf("refused install crashed the engine: %v", err)
		}
		eng.Close()

		// A crash after the commit point can leave the pre-install log
		// behind; recovery must not replay it over the image.
		for path, img := range stale {
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		eng2, _ := mustOpen(t, dir, Options{})
		if got := eng2.Digest(); got != want {
			t.Fatalf("recovered digest %s != image %s", got, want)
		}
		if eng2.NextLSN() != 30 {
			t.Fatalf("recovered NextLSN %d, want 30", eng2.NextLSN())
		}
		// Shipping resumes at the image's position.
		if err := eng2.AppendAt("", 30, upsert(12, "fs", "/after")); err != nil {
			t.Fatal(err)
		}
		eng2.Close()
	})
	t.Run(lane+"/crash", func(t *testing.T) {
		dir := t.TempDir()
		inj := fault.New(1)
		inj.Add(fault.Rule{Point: store.FaultSnapshot, Kind: fault.Error, Times: 1})
		eng, _ := mustOpen(t, dir, Options{Faults: inj})
		appendAll(t, eng, old)
		want, next := eng.Digest(), eng.NextLSN()
		st, _ := image(t)
		if err := eng.Install(st, 30); !errors.Is(err, store.ErrCrashed) {
			t.Fatalf("install crash surfaced %v, want ErrCrashed", err)
		}
		eng2, _ := mustOpen(t, dir, Options{})
		defer eng2.Close()
		if got := eng2.Digest(); got != want {
			t.Fatalf("crashed install recovered %s, want the pre-install %s", got, want)
		}
		if eng2.NextLSN() != next {
			t.Fatalf("crashed install recovered NextLSN %d, want %d", eng2.NextLSN(), next)
		}
	})
}

// TestConformanceCrashMatrix is the write-path crash matrix run through
// the interface: for every record position k and both crash flavors
// (clean boundary, torn mid-frame), the recovered state must equal the
// reference state holding exactly the first k-1 records, and only the
// torn flavor may warn.
func TestConformanceCrashMatrix(t *testing.T) {
	recs := workload()
	for _, flavor := range []string{"boundary", "torn"} {
		point := store.FaultAppend
		if flavor == "torn" {
			point = store.FaultTorn
		}
		t.Run(lane+"/"+flavor, func(t *testing.T) {
			for k := 1; k <= len(recs); k++ {
				dir := t.TempDir()
				inj := fault.New(1)
				inj.Add(fault.Rule{Point: point, Kind: fault.Error, After: k - 1, Times: 1})
				eng, _ := mustOpen(t, dir, Options{Faults: inj})
				var failed error
				for _, rec := range recs {
					if failed = eng.Append(sourceOf(rec), rec); failed != nil {
						break
					}
				}
				if !errors.Is(failed, store.ErrCrashed) {
					t.Fatalf("k=%d: crash did not surface ErrCrashed: %v", k, failed)
				}
				// Post-crash the engine refuses everything.
				if err := eng.Append("fs", upsert(99, "fs", "/late")); !errors.Is(err, store.ErrCrashed) {
					t.Fatalf("k=%d: append after crash: %v", k, err)
				}

				eng2, info := mustOpen(t, dir, Options{})
				if got, want := eng2.Digest(), referenceDigest(t, k-1); got != want {
					t.Fatalf("k=%d: recovered digest %s != reference prefix digest %s", k, got, want)
				}
				if flavor == "torn" && info.TornTails == 0 {
					t.Fatalf("k=%d: torn crash recovered without a torn-tail warning", k)
				}
				if flavor == "boundary" && len(info.Warnings) != 0 {
					t.Fatalf("k=%d: boundary crash produced warnings: %v", k, info.Warnings)
				}
				eng2.Close()
			}
		})
	}
}

// TestConformanceDoubleCrash arms the replay fault: a crash in the
// middle of recovery itself must surface ErrCrashed, and a subsequent
// clean open must still reconstruct the full state (recovery is
// re-entrant).
func TestConformanceDoubleCrash(t *testing.T) {
	recs := workload()
	t.Run(lane, func(t *testing.T) {
		dir := t.TempDir()
		eng, _ := mustOpen(t, dir, Options{})
		appendAll(t, eng, recs)
		want := eng.Digest()
		eng.Close()

		for k := 1; k <= len(recs); k++ {
			inj := fault.New(1)
			inj.Add(fault.Rule{Point: store.FaultReplay, Kind: fault.Error, After: k - 1, Times: 1})
			if _, _, err := Open(dir, Options{Faults: inj}); !errors.Is(err, store.ErrCrashed) {
				t.Fatalf("k=%d: recovery crash surfaced %v, want ErrCrashed", k, err)
			}
		}
		eng2, _ := mustOpen(t, dir, Options{})
		defer eng2.Close()
		if got := eng2.Digest(); got != want {
			t.Fatalf("digest after crashed recoveries %s != %s", got, want)
		}
	})
}

// TestConformanceCrashDuringSnapshot arms the snapshot fault: a crash
// before the compaction writes anything must leave the pre-snapshot
// directory fully recoverable with no compaction recorded.
func TestConformanceCrashDuringSnapshot(t *testing.T) {
	t.Run(lane, func(t *testing.T) {
		dir := t.TempDir()
		inj := fault.New(1)
		inj.Add(fault.Rule{Point: store.FaultSnapshot, Kind: fault.Error, Times: 1})
		eng, _ := mustOpen(t, dir, Options{Faults: inj})
		appendAll(t, eng, workload())
		want := eng.Digest()
		if err := eng.Snapshot(); !errors.Is(err, store.ErrCrashed) {
			t.Fatalf("snapshot crash surfaced %v, want ErrCrashed", err)
		}

		eng2, info := mustOpen(t, dir, Options{})
		defer eng2.Close()
		if info.SnapshotSeq != 0 {
			t.Fatalf("crashed snapshot left seq %d, want 0", info.SnapshotSeq)
		}
		if got := eng2.Digest(); got != want {
			t.Fatalf("recovered digest %s != %s", got, want)
		}
	})
}

// TestDirLockExclusive pins the data-dir lock: a second open of a live
// directory fails with a clear error, and closing the first engine
// releases the lock.
func TestDirLockExclusive(t *testing.T) {
	t.Run(lane+"-then-"+lane, func(t *testing.T) {
		dir := t.TempDir()
		eng, _ := mustOpen(t, dir, Options{})
		if _, _, err := Open(dir, Options{}); err == nil {
			t.Fatal("second open of a live dir succeeded")
		} else if !strings.Contains(err.Error(), "locked") {
			t.Fatalf("second open failed without a clear error (want %q): %v", "locked", err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		eng2, _ := mustOpen(t, dir, Options{})
		eng2.Close()
	})
}

// TestBackendMismatchRefused pins the layout guard against the removed
// compact backend's layout (a compact/ subdirectory): Open refuses it
// with an error that says the backend was removed and there is no
// migration, rather than lock the directory and silently report an
// empty dataspace next to the existing data.
func TestBackendMismatchRefused(t *testing.T) {
	// refused asserts that Open refuses dir as a legacy compact layout.
	refused := func(t *testing.T, dir string) {
		t.Helper()
		_, _, err := Open(dir, Options{})
		if err == nil {
			t.Fatal("legacy compact directory opened")
		}
		for _, want := range []string{"compact backend", "removed", "no migration"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("refusal does not say %q: %v", want, err)
			}
		}
	}
	writeLegacy := func(t *testing.T, dir string) {
		t.Helper()
		legacy := filepath.Join(dir, "compact", "meta.seg")
		if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(legacy, []byte("IDMCSEG1"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A directory only the compact backend wrote is left untouched.
	t.Run("compact", func(t *testing.T) {
		dir := t.TempDir()
		writeLegacy(t, dir)
		refused(t, dir)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != "compact" {
			t.Fatalf("refused open touched the directory: %v", ents)
		}
	})

	// A WAL directory that also holds a compact layout is refused too,
	// and the refusal loses none of the WAL's data.
	t.Run(lane, func(t *testing.T) {
		dir := t.TempDir()
		eng, _ := mustOpen(t, dir, Options{})
		appendAll(t, eng, []store.Record{upsert(1, "fs", "a")})
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		writeLegacy(t, dir)
		refused(t, dir)
		if err := os.RemoveAll(filepath.Join(dir, "compact")); err != nil {
			t.Fatal(err)
		}
		eng2, _ := mustOpen(t, dir, Options{})
		defer eng2.Close()
		if eng2.State().Views[1] == nil {
			t.Fatal("data lost after refused open")
		}
	})
}
