package storage

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

var updateFixtures = flag.Bool("update", false, "regenerate the compacted-segment fixture under testdata/store")

// fixtureDir is the shared binary-fixture directory (the root corruption
// suite keeps its WAL and snapshot goldens there too).
func fixtureDir() string { return filepath.Join("..", "..", "testdata", "store") }

const segFixture = "compact.seg"

// buildFixtureSegment renders the canonical segment for the "fs" slice
// of the conformance workload at watermark 42 — the committed fuzz seed
// and format-stability witness.
func buildFixtureSegment(tb testing.TB) []byte {
	tb.Helper()
	st := store.NewState()
	for _, rec := range workload() {
		st.Apply(rec)
	}
	img, err := encodeSegment(sourceSegmentRecords(st, "fs"), 42)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

func loadFixtureSegment(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join(fixtureDir(), segFixture))
	if err != nil {
		tb.Fatalf("missing fixture (run go test ./internal/storage -update): %v", err)
	}
	return b
}

func TestSegmentFixtureBytesStable(t *testing.T) {
	img := buildFixtureSegment(t)
	if *updateFixtures {
		if err := os.MkdirAll(fixtureDir(), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(fixtureDir(), segFixture), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(img, loadFixtureSegment(t)) {
		t.Fatal("re-rendering the fixture produced different segment bytes: the compacted format is nondeterministic or drifted (run with -update if deliberate)")
	}
}

func TestSegmentRoundtrip(t *testing.T) {
	img := buildFixtureSegment(t)
	recs, watermark, err := DecodeSegment(img)
	if err != nil {
		t.Fatal(err)
	}
	if watermark != 42 {
		t.Fatalf("watermark %d, want 42", watermark)
	}
	// fs holds views 1 and 4 (2 was removed) plus one edges record.
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	if recs[0].Kind != store.KindUpsert || recs[0].View.Entry.OID != 1 {
		t.Fatalf("first record %+v, want upsert of OID 1", recs[0])
	}
	if recs[1].Kind != store.KindUpsert || recs[1].View.Entry.OID != 4 {
		t.Fatalf("second record %+v, want upsert of OID 4 (ascending-OID order)", recs[1])
	}
	if recs[2].Kind != store.KindEdges || recs[2].Source != "fs" {
		t.Fatalf("third record %+v, want the fs edges", recs[2])
	}
}

func TestSegmentDecodeRejectsDamage(t *testing.T) {
	img := buildFixtureSegment(t)
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("NOTASEG1\n"), img[len(SegmentMagic):]...),
		"truncated tail":  img[:len(img)-3],
		"missing end":     img[:len(img)-12], // cut the SnapshotEnd frame entirely
		"trailing frames": append(append([]byte(nil), img...), img[len(SegmentMagic):]...),
		"flipped byte": func() []byte {
			mut := append([]byte(nil), img...)
			mut[len(mut)/2] ^= 0x40
			return mut
		}(),
	}
	for name, b := range cases {
		if _, _, err := DecodeSegment(b); err == nil {
			t.Errorf("%s: DecodeSegment accepted damaged input", name)
		}
	}
}

// TestCompactCorruptSegmentSkipped pins the documented degradation: a
// damaged (immutable, externally corrupted) source segment is skipped
// whole with a warning, the other sources and the tail survive.
func TestCompactCorruptSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	eng, _ := mustOpenB(t, BackendCompact, dir, Options{})
	appendAll(t, eng, workload())
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("rss", upsert(12, "rss", "/feed/1")); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	segPath := filepath.Join(dir, "compact", segmentFileName("fs"))
	img, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(segPath, img, 0o644); err != nil {
		t.Fatal(err)
	}

	eng2, info := mustOpenB(t, BackendCompact, dir, Options{})
	defer eng2.Close()
	if len(info.Warnings) == 0 || !strings.Contains(strings.Join(info.Warnings, "\n"), "skipping segment") {
		t.Fatalf("corrupt segment not skipped with a warning: %+v", info.Warnings)
	}
	st := eng2.State()
	for _, v := range st.Views {
		if v.Entry.Source == "fs" {
			t.Fatalf("view %d survived from the corrupt fs segment", v.Entry.OID)
		}
	}
	if _, ok := st.Views[3]; !ok {
		t.Fatal("mail segment lost alongside the corrupt fs one")
	}
	if _, ok := st.Views[12]; !ok {
		t.Fatal("tail record lost alongside the corrupt segment")
	}
}

// TestCompactStaleSegmentNotResurrected pins the deletion-durability
// crash window: a compaction that retires a source (all its views
// removed) and crashes between the meta.seg write and the stale-segment
// sweep leaves an old-watermark segment next to a new-watermark
// meta.seg. Recovery must delete that leftover, not apply it — its
// remove records sit below the new watermark and are never replayed, so
// applying it would permanently resurrect the deleted views.
func TestCompactStaleSegmentNotResurrected(t *testing.T) {
	dir := t.TempDir()
	eng, _ := mustOpenB(t, BackendCompact, dir, Options{})
	appendAll(t, eng, workload())
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "compact", segmentFileName("mail"))
	staleImg, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Retire mail purely via logged records (DropSource would unlink the
	// segment itself; the Snapshot sweep is the path under test).
	if err := eng.Append("mail", store.Record{Kind: store.KindRemove, OID: 3}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if eng.(*CompactStore).HasSegment("mail") {
		t.Fatal("compaction left the retired mail segment behind")
	}
	want := eng.Digest()
	eng.Close()

	// Reconstruct the crash artifact: old mail segment back on disk next
	// to the newer meta.seg and the already-truncated tail.
	if err := os.WriteFile(segPath, staleImg, 0o644); err != nil {
		t.Fatal(err)
	}
	eng2, _ := mustOpenB(t, BackendCompact, dir, Options{})
	defer eng2.Close()
	if got := eng2.Digest(); got != want {
		t.Fatalf("stale segment changed the recovered digest: %s != %s", got, want)
	}
	if _, ok := eng2.State().Views[3]; ok {
		t.Fatal("removed view 3 resurrected from the stale segment")
	}
	if eng2.(*CompactStore).HasSegment("mail") {
		t.Fatal("recovery left the stale segment in place")
	}
}

// TestCompactCorruptMetaRefused pins the meta.seg exception to the
// tolerate-corruption rule: meta.seg alone pins the OID counter past
// dropped sources, so a damaged one fails the open instead of silently
// regressing NextOID.
func TestCompactCorruptMetaRefused(t *testing.T) {
	dir := t.TempDir()
	eng, _ := mustOpenB(t, BackendCompact, dir, Options{})
	appendAll(t, eng, workload())
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	metaPath := filepath.Join(dir, "compact", metaSegmentFile)
	orig, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), orig...)
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(metaPath, img, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(dir, Options{Backend: BackendCompact}); err == nil {
		t.Fatal("open succeeded with a corrupt meta.seg")
	} else if !strings.Contains(err.Error(), metaSegmentFile) {
		t.Fatalf("open error does not name meta.seg: %v", err)
	}
	// The failed open released the lock; an intact directory still opens.
	if err := os.WriteFile(metaPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	eng2, _ := mustOpenB(t, BackendCompact, dir, Options{})
	eng2.Close()
}

// TestCompactStaleTailSkipped pins the compaction commit point: tail
// records below the meta watermark (left behind when a crash hits
// between the meta.seg write and the tail truncation) are not replayed
// over the segments that already cover them.
func TestCompactStaleTailSkipped(t *testing.T) {
	dir := t.TempDir()
	eng, _ := mustOpenB(t, BackendCompact, dir, Options{})
	appendAll(t, eng, workload())
	want := eng.Digest()
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	// Reconstruct the pre-truncation tail: stale sub-watermark records —
	// including a Meta with a lower OID counter, the dangerous case —
	// prepended before the (currently empty) post-compaction log.
	var stale []byte
	var err error
	if stale, err = store.AppendFrame(stale, 1, upsert(1, "fs", "/a")); err != nil {
		t.Fatal(err)
	}
	if stale, err = store.AppendFrame(stale, 2, store.Record{Kind: store.KindMeta, NextOID: 1}); err != nil {
		t.Fatal(err)
	}
	tailPath := filepath.Join(dir, "compact", tailFile)
	if err := os.WriteFile(tailPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	eng2, info := mustOpenB(t, BackendCompact, dir, Options{})
	defer eng2.Close()
	if info.WALRecords != 0 {
		t.Fatalf("replayed %d stale tail records, want 0", info.WALRecords)
	}
	if got := eng2.Digest(); got != want {
		t.Fatalf("stale tail changed the recovered digest: %s != %s", got, want)
	}
	if eng2.State().NextOID != 9 {
		t.Fatalf("stale Meta rolled the OID counter back to %d", eng2.State().NextOID)
	}
}

// TestCompactInterruptedInstallKeepsOldPosition pins the one install
// crash window that is not all-or-nothing on this backend: segments are
// rewritten in place before meta.seg commits, so a crash between the two
// recovers new-image sources next to the old meta.seg and tail. That mix
// must come back at the OLD position — below the leader's base, so the
// follower is shipped the image again — never at the image's.
func TestCompactInterruptedInstallKeepsOldPosition(t *testing.T) {
	dir := t.TempDir()
	eng, _ := mustOpenB(t, BackendCompact, dir, Options{})
	appendAll(t, eng, workload()[:5])
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, eng, workload()[5:])
	oldNext := eng.NextLSN()
	pre := map[string][]byte{metaSegmentFile: nil, tailFile: nil}
	for name := range pre {
		b, err := os.ReadFile(filepath.Join(dir, "compact", name))
		if err != nil {
			t.Fatal(err)
		}
		pre[name] = b
	}

	img := store.NewState()
	img.Apply(upsert(1, "fs", "/rewritten"))
	img.Apply(store.Record{Kind: store.KindMeta, NextOID: 99})
	if err := eng.Install(img, 500); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	// Undo the commit point and the tail truncate: what a crash just
	// before meta.seg leaves.
	for name, b := range pre {
		if err := os.WriteFile(filepath.Join(dir, "compact", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	eng2, _ := mustOpenB(t, BackendCompact, dir, Options{})
	defer eng2.Close()
	if got := eng2.NextLSN(); got != oldNext {
		t.Fatalf("half-installed directory recovered at NextLSN %d, want the pre-install %d", got, oldNext)
	}
	// The image is still acceptable, and installing it heals the mix.
	if err := eng2.Install(img.Clone(), 500); err != nil {
		t.Fatal(err)
	}
	if got, want := eng2.Digest(), img.Digest(); got != want {
		t.Fatalf("re-install digest %s != image %s", got, want)
	}
}
