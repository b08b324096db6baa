package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/fault"
)

func upsert(oid catalog.OID, source, uri string) Record {
	return Record{Kind: KindUpsert, View: &ViewRecord{Entry: catalog.Entry{
		OID: oid, Name: filepath.Base(uri), Class: "file", Source: source,
		URI: uri, ContentSize: -1,
	}}}
}

func mustOpen(t *testing.T, dir string, opts Options) (*Store, RecoveryInfo) {
	t.Helper()
	s, info, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, info
}

func TestStoreAppendReopenEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	recs := []Record{
		upsert(1, "fs", "/a"),
		upsert(2, "fs", "/b"),
		{Kind: KindEdges, Source: "fs", Edges: []EdgeList{{Parent: 1, Children: []catalog.OID{2}}}},
		upsert(3, "mail", "/inbox/1"),
		{Kind: KindEdges, Source: "mail", Edges: []EdgeList{{Parent: 3, Children: nil}}},
		{Kind: KindRemove, OID: 2},
	}
	for _, rec := range recs {
		src := ""
		if rec.Kind == KindUpsert {
			src = rec.View.Entry.Source
		} else if rec.Kind == KindEdges {
			src = rec.Source
		} else if rec.Kind == KindRemove {
			src = "fs"
		}
		if err := s.Append(src, rec); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The shadow state must equal what recovery reconstructs.
	s2, info := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := s2.Digest(); got != want {
		t.Fatalf("recovered digest %s != shadow digest %s", got, want)
	}
	if info.WALRecords != len(recs) {
		t.Fatalf("replayed %d records, want %d", info.WALRecords, len(recs))
	}
	if len(info.Warnings) != 0 {
		t.Fatalf("clean recovery produced warnings: %v", info.Warnings)
	}
	if st := s2.State(); len(st.Views) != 2 {
		t.Fatalf("recovered %d views, want 2", len(st.Views))
	}
}

func TestStoreDeadAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	s.Close()
	if err := s.Append("fs", upsert(1, "fs", "/a")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestStoreSnapshotRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	for i := 1; i <= 5; i++ {
		if err := s.Append("fs", upsert(catalog.OID(i), "fs", fmt.Sprintf("/f%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Digest()
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if s.SnapshotSeq() != 1 {
		t.Fatalf("snapshot seq %d, want 1", s.SnapshotSeq())
	}
	// The WAL is truncated after a snapshot.
	ents, _ := os.ReadDir(filepath.Join(dir, "wal"))
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			t.Fatalf("WAL segment %s survived the snapshot", e.Name())
		}
	}
	// Appends continue after a snapshot; recovery = snapshot + tail.
	if err := s.Append("fs", upsert(6, "fs", "/f6")); err != nil {
		t.Fatal(err)
	}
	want6 := s.Digest()
	if want6 == want {
		t.Fatal("digest did not change after post-snapshot append")
	}
	s.Close()

	s2, info := mustOpen(t, dir, Options{})
	if info.SnapshotSeq != 1 || info.SnapshotViews != 5 || info.WALRecords != 1 {
		t.Fatalf("recovery info %+v, want snapshot 1 with 5 views + 1 WAL record", info)
	}
	if s2.Digest() != want6 {
		t.Fatal("snapshot+tail recovery diverged from shadow state")
	}

	// A second snapshot keeps exactly one previous snapshot around.
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 3 {
		t.Fatalf("snapshots on disk: %v, want [2 3]", seqs)
	}
	s2.Close()
}

func TestStoreInvalidSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append("fs", upsert(1, "fs", "/a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("fs", upsert(2, "fs", "/b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := s.Digest()
	s.Close()

	// Corrupt the newest snapshot: recovery must fall back to the
	// previous one (which holds the same state minus nothing here, since
	// the second snapshot added /b — so fall-back recovers only /a).
	newest := snapshotPath(dir, 2)
	img, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(newest, img, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, info := mustOpen(t, dir, Options{})
	defer s2.Close()
	if info.SnapshotSeq != 1 {
		t.Fatalf("fell back to snapshot %d, want 1", info.SnapshotSeq)
	}
	if len(info.Warnings) == 0 {
		t.Fatal("silent fall-back: want a warning")
	}
	if got := s2.Digest(); got == want {
		t.Fatal("recovered full state from a corrupt snapshot?")
	}
	if len(s2.State().Views) != 1 {
		t.Fatalf("fallback recovered %d views, want 1", len(s2.State().Views))
	}
}

func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append("fs", upsert(1, "fs", "/a")); err != nil {
		t.Fatal(err)
	}
	want := s.Digest()
	s.Close()

	seg := filepath.Join(dir, "wal", segmentName("fs"))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Append half of a duplicate frame: the classic crash mid-write.
	if err := os.WriteFile(seg, append(b, b[:len(b)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, info := mustOpen(t, dir, Options{})
	if info.TornTails != 1 || len(info.Warnings) == 0 {
		t.Fatalf("torn tail not reported: %+v", info)
	}
	if s2.Digest() != want {
		t.Fatal("torn tail changed the recovered state")
	}
	s2.Close()
	// The tail was physically truncated: a second recovery is clean.
	s3, info3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	if info3.TornTails != 0 || len(info3.Warnings) != 0 {
		t.Fatalf("tail not truncated, second recovery still warns: %+v", info3)
	}
}

func TestStoreDropSource(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append("fs", upsert(1, "fs", "/a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("mail", upsert(2, "mail", "/m")); err != nil {
		t.Fatal(err)
	}
	if !s.HasSegment("fs") {
		t.Fatal("no segment for fs")
	}
	if err := s.DropSource("fs", 2); err != nil {
		t.Fatal(err)
	}
	if s.HasSegment("fs") {
		t.Fatal("fs segment survived DropSource")
	}
	// Re-adding the source starts a fresh segment.
	if err := s.Append("fs", upsert(3, "fs", "/new")); err != nil {
		t.Fatal(err)
	}
	if !s.HasSegment("fs") {
		t.Fatal("re-added source has no segment")
	}
	want := s.Digest()
	s.Close()

	s2, _ := mustOpen(t, dir, Options{})
	defer s2.Close()
	if s2.Digest() != want {
		t.Fatal("drop + re-add did not survive recovery")
	}
	st := s2.State()
	if _, ok := st.Views[1]; ok {
		t.Fatal("dropped view resurrected")
	}
	// The Meta record pinned the OID counter across the drop.
	if st.NextOID != 3 {
		t.Fatalf("NextOID %d, want 3", st.NextOID)
	}
}

func TestStoreCrashPoints(t *testing.T) {
	for _, point := range []string{FaultAppend, FaultTorn, FaultFsync} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.New(1).Add(fault.Rule{Point: point, Kind: fault.Error, After: 1, Times: 1})
			s, _ := mustOpen(t, dir, Options{Sync: SyncAlways, Faults: inj})
			if err := s.Append("fs", upsert(1, "fs", "/a")); err != nil {
				t.Fatalf("first append: %v", err)
			}
			want := s.Digest()
			err := s.Append("fs", upsert(2, "fs", "/b"))
			if err == nil {
				t.Fatal("injected crash did not surface")
			}
			if !fault.IsInjected(err) {
				t.Fatalf("crash error %v does not unwrap to the injection", err)
			}
			// The store is dead, like a killed process.
			if err := s.Append("fs", upsert(3, "fs", "/c")); err == nil {
				t.Fatal("append on crashed store succeeded")
			}

			s2, info := mustOpen(t, dir, Options{})
			defer s2.Close()
			if point == FaultTorn && info.TornTails == 0 {
				t.Fatalf("mid-record crash left no torn tail: %+v", info)
			}
			// FaultFsync crashes after the write: the record may or may not
			// be durable (that is the fsync contract); both states are valid
			// recovery targets. Append/torn crashes lose exactly the record.
			if point != FaultFsync && s2.Digest() != want {
				t.Fatalf("recovered digest differs from pre-crash commit")
			}
		})
	}
}

// TestReplay100k pins the ISSUE acceptance bound: recovery over a
// 100k-mutation WAL completes in under 2 seconds.
func TestReplay100k(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Sync: SyncNever})
	const n = 100_000
	for i := 1; i <= n; i++ {
		src := "fs"
		if i%2 == 0 {
			src = "mail"
		}
		if err := s.Append(src, upsert(catalog.OID(i), src, fmt.Sprintf("/f/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	s2, info := mustOpen(t, dir, Options{})
	elapsed := time.Since(start)
	defer s2.Close()
	if info.WALRecords != n {
		t.Fatalf("replayed %d records, want %d", info.WALRecords, n)
	}
	if s2.Digest() != want {
		t.Fatal("bulk recovery diverged")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("recovery of %d records took %v, want < 2s", n, elapsed)
	}
	t.Logf("replayed %d records in %v", n, elapsed)
}

// TestNewSegmentSyncsDirectory pins the durability of a new file's name:
// creating wal/ or a segment inside it fsyncs the parent directory
// (unless the policy is SyncNever), once per creation — fsyncing the
// file alone leaves an acknowledged record's file to a power cut.
func TestNewSegmentSyncsDirectory(t *testing.T) {
	var synced []string
	orig := syncDir
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return orig(dir)
	}
	defer func() { syncDir = orig }()
	expect := func(step string, want ...string) {
		t.Helper()
		if fmt.Sprint(synced) != fmt.Sprint(want) {
			t.Fatalf("%s: directory fsyncs %v, want %v", step, synced, want)
		}
		synced = nil
	}
	edges := func(source string) Record {
		return Record{Kind: KindEdges, Source: source, Edges: []EdgeList{{Parent: 1}}}
	}

	dir := t.TempDir()
	wal := filepath.Join(dir, "wal")
	s, _ := mustOpen(t, dir, Options{})
	expect("open creates wal/", dir)
	for _, step := range []struct {
		name   string
		source string
		want   []string
	}{
		{"first record of fs", "fs", []string{wal}},
		{"second record of fs", "fs", nil},
		{"first meta record", "", []string{wal}},
		{"first record of mail", "mail", []string{wal}},
		{"second record of mail", "mail", nil},
	} {
		if err := s.Append(step.source, edges(step.source)); err != nil {
			t.Fatal(err)
		}
		expect(step.name, step.want...)
	}
	// Snapshot deletes the segments; the next record re-creates one.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	synced = nil
	if err := s.Append("fs", edges("fs")); err != nil {
		t.Fatal(err)
	}
	expect("first record after a snapshot", wal)
	s.Close()

	// Reopening an existing directory creates nothing.
	s, _ = mustOpen(t, dir, Options{})
	if err := s.Append("fs", edges("fs")); err != nil {
		t.Fatal(err)
	}
	expect("append to a recovered segment")
	s.Close()

	// SyncNever leaves flushing to the OS, directories included.
	s, _ = mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	if err := s.Append("fs", edges("fs")); err != nil {
		t.Fatal(err)
	}
	expect("SyncNever")
	s.Close()

	// A failed directory fsync crashes the store, as DropSource's does.
	s, _ = mustOpen(t, t.TempDir(), Options{})
	syncDir = func(string) error { return fmt.Errorf("injected dir fsync failure") }
	if err := s.Append("fs", edges("fs")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("failed dir fsync surfaced %v, want ErrCrashed", err)
	}
	if err := s.Append("fs", edges("fs")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("store alive after a failed dir fsync: %v", err)
	}
	s.Close()
}
