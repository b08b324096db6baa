package idm_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	idm "repro"
	"repro/internal/store"
	"repro/internal/vfs"
)

// durableFS builds the deterministic fixture the durability tests sync:
// a LaTeX paper (whose converter output adds derived section/figure/ref
// views) plus a plain note. The filesystem clock is pinned so the
// mtime-derived stamps — and therefore the WAL bytes — are identical
// across runs.
func durableFS() *vfs.FS {
	fs := vfs.NewWithClock(fixedNow)
	fs.MkdirAll("/papers/VLDB2006")
	fs.WriteFile("/papers/VLDB2006/vldb.tex", []byte(
		"\\section{Introduction} Mike Franklin dataspaces vision \\ref{fig:index}\n"+
			"\\section{GrandVision} Franklin agrees systems\n"+
			"\\begin{figure}\\label{fig:index} indexing time plot \\end{figure}\n"))
	fs.WriteFile("/papers/notes.txt", []byte("dataspaces reading notes"))
	return fs
}

func durableConfig(dir string, inj *idm.FaultInjector) idm.Config {
	return idm.Config{DataDir: dir, Now: fixedNow, Parallelism: 1, Faults: inj}
}

// crashLanes are the data directories the crash tests start from: an
// empty one ("wal"), whose recovery replays the whole log, and one whose
// earlier history a checkpoint compacted into a snapshot ("compact"),
// whose recovery loads the snapshot and replays the log beside it.
var crashLanes = []struct {
	name string
	dir  func(t *testing.T) string
}{
	{"wal", func(t *testing.T) string { return t.TempDir() }},
	{"compact", compactedDir},
}

// compactedDir returns a closed data directory holding a synced
// "history" source compacted into a snapshot, its WAL emptied by the
// checkpoint. It is deterministic: two calls leave byte-identical
// directories.
func compactedDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	sys, _, err := idm.OpenDurable(durableConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewWithClock(fixedNow)
	fs.MkdirAll("/history")
	fs.WriteFile("/history/log.txt", []byte("dataspaces history before the checkpoint"))
	if err := sys.AddFileSystem("history", fs); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// logRelPaths lists the append-log files under a data directory,
// relative to it, sorted: wal/meta.wal and the wal/seg-*.wal segments.
func logRelPaths(t *testing.T, dir string) []string {
	t.Helper()
	var rels []string
	if ents, err := os.ReadDir(filepath.Join(dir, "wal")); err == nil {
		for _, e := range ents {
			rels = append(rels, filepath.Join("wal", e.Name()))
		}
	}
	if len(rels) == 0 {
		t.Fatalf("no append-log files under %s", dir)
	}
	sort.Strings(rels)
	return rels
}

// walPrefixDigests merge-replays the append logs under dir in LSN
// order over the newest snapshot, if any — exactly as recovery does —
// and returns the state digest after every record prefix: digests[k] is
// the digest with the first k records replayed, so digests[0] is the
// snapshot's (or the empty) state and digests[len-1] the full one.
func walPrefixDigests(t *testing.T, dir string) []string {
	t.Helper()
	st, baseLSN := store.NewState(), uint64(0)
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > 0 {
		sort.Strings(snaps)
		b, err := os.ReadFile(snaps[len(snaps)-1])
		if err != nil {
			t.Fatal(err)
		}
		if st, baseLSN, err = store.DecodeSnapshot(b); err != nil {
			t.Fatalf("reference snapshot not clean: %v", err)
		}
	}
	type walRec struct {
		lsn uint64
		rec store.Record
	}
	var all []walRec
	for _, rel := range logRelPaths(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		res, err := store.ReplayBytes(b, func(lsn uint64, rec store.Record) error {
			if lsn >= baseLSN {
				all = append(all, walRec{lsn, rec})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Warning != "" {
			t.Fatalf("reference log %s not clean: %s", rel, res.Warning)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
	digests := []string{st.Digest()}
	for _, wr := range all {
		st.Apply(wr.rec)
		digests = append(digests, st.Digest())
	}
	return digests
}

// assertSegmentPrefixes asserts that every append-log file the crashed
// run left behind is a byte-prefix of the reference run's same-named
// file: a crash — at a boundary or mid-record — can only lose tail
// bytes of the deterministic append stream, never diverge from it.
func assertSegmentPrefixes(t *testing.T, crashedDir, refDir string) {
	t.Helper()
	for _, rel := range logRelPaths(t, crashedDir) {
		got, err := os.ReadFile(filepath.Join(crashedDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(refDir, rel))
		if err != nil {
			t.Fatalf("crashed run wrote log %s the reference run never had: %v", rel, err)
		}
		if len(got) > len(want) || !bytes.Equal(got, want[:len(got)]) {
			t.Errorf("log %s of the crashed run is not a byte-prefix of the reference (%d vs %d bytes)",
				rel, len(got), len(want))
		}
	}
}

// TestCrashMatrix is the crash matrix of ISSUE 5: a scripted sync is
// killed at every WAL record boundary (crash before append k) and
// mid-record (crash halfway through writing record k), the directory is
// recovered, and the recovered graph must be byte-equal — via the stable
// serialization digest — to the reference run's state at the same
// prefix. Re-syncing the source afterwards must converge byte-equal to
// the reference final state. It runs in both crash lanes.
func TestCrashMatrix(t *testing.T) {
	for _, lane := range crashLanes {
		t.Run(lane.name, func(t *testing.T) { crashMatrix(t, lane.dir) })
	}
}

func crashMatrix(t *testing.T, startDir func(*testing.T) string) {
	fs := durableFS()

	// Reference run: the same scripted sync with no faults.
	refDir := startDir(t)
	ref, _, err := idm.OpenDurable(durableConfig(refDir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AddFileSystem("filesystem", fs); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Index(); err != nil {
		t.Fatal(err)
	}
	refFinal := ref.StateDigest()
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	prefixes := walPrefixDigests(t, refDir)
	n := len(prefixes) - 1
	if n < 5 {
		t.Fatalf("reference run logged only %d records; fixture too small for a matrix", n)
	}
	if prefixes[n] != refFinal {
		t.Fatalf("reference replay digest %s != live digest %s", prefixes[n], refFinal)
	}
	t.Logf("crash matrix over %d WAL records × 2 crash modes", n)

	modes := []struct {
		name  string
		point string
	}{
		{"boundary", store.FaultAppend}, // crash before record k is written
		{"torn", store.FaultTorn},       // crash after half of record k is written
	}
	for _, mode := range modes {
		for k := 1; k <= n; k++ {
			t.Run(fmt.Sprintf("%s/record-%02d", mode.name, k), func(t *testing.T) {
				dir := startDir(t)
				inj := idm.NewFaultInjector(1)
				inj.Add(idm.FaultRule{Point: mode.point, Kind: idm.FaultError, After: k - 1, Times: 1})
				sys, _, err := idm.OpenDurable(durableConfig(dir, inj))
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.AddFileSystem("filesystem", fs); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Index(); err == nil {
					t.Fatal("injected crash did not abort the sync")
				}
				sys.Close()

				assertSegmentPrefixes(t, dir, refDir)

				// Recover. Both crash modes lose exactly record k and
				// everything after it: the recovered graph must be
				// byte-equal to the reference prefix of k-1 records.
				re, info, err := idm.OpenDurable(durableConfig(dir, nil))
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				if got := re.StateDigest(); got != prefixes[k-1] {
					t.Fatalf("recovered digest != reference prefix digest after %d records\n got %s\nwant %s",
						k-1, got, prefixes[k-1])
				}
				if mode.point == store.FaultTorn {
					if info.TornTails == 0 || len(info.Warnings) == 0 {
						t.Fatalf("mid-record crash recovered without a torn-tail warning: %+v", info)
					}
				} else if len(info.Warnings) != 0 {
					t.Fatalf("boundary crash recovery should be clean, got warnings: %v", info.Warnings)
				}

				// Re-adding the source and re-syncing converges on the
				// reference final state, byte for byte.
				if err := re.AddFileSystem("filesystem", fs); err != nil {
					t.Fatal(err)
				}
				if _, err := re.Index(); err != nil {
					t.Fatalf("post-recovery sync: %v", err)
				}
				if got := re.StateDigest(); got != refFinal {
					t.Fatalf("post-recovery resync diverged from reference\n got %s\nwant %s", got, refFinal)
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCrashDuringSnapshot kills the store at the snapshot fault point:
// the checkpoint fails, but the WAL is intact and recovery still
// reproduces the full state — from the log alone, or, in the compact
// lane, from the earlier snapshot the failed one must leave in place
// plus the log beside it.
func TestCrashDuringSnapshot(t *testing.T) {
	for _, lane := range crashLanes {
		t.Run(lane.name, func(t *testing.T) { crashDuringSnapshot(t, lane.dir) })
	}
}

func crashDuringSnapshot(t *testing.T, startDir func(*testing.T) string) {
	fs := durableFS()
	dir := startDir(t)
	// The snapshot recovery loads before the failed checkpoint (0 = none).
	first, start, err := idm.OpenDurable(durableConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	inj := idm.NewFaultInjector(1)
	inj.Add(idm.FaultRule{Point: "store/snapshot/write", Kind: idm.FaultError, Times: 1})
	sys, _, err := idm.OpenDurable(durableConfig(dir, inj))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddFileSystem("filesystem", fs); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	want := sys.StateDigest()
	if err := sys.Checkpoint(); err == nil {
		t.Fatal("injected snapshot crash did not surface")
	}
	sys.Close()

	re, info, err := idm.OpenDurable(durableConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info.SnapshotSeq != start.SnapshotSeq {
		t.Fatalf("recovery loaded snapshot %d, want %d: the crashed checkpoint left or destroyed one",
			info.SnapshotSeq, start.SnapshotSeq)
	}
	if re.StateDigest() != want {
		t.Fatal("recovery after snapshot crash lost state")
	}
}

// TestDoubleCrashDuringRecovery crashes the system a second time while
// it is STILL RECOVERING from the first crash — the replay loop itself
// is killed at every record position — and then recovers cleanly. The
// matrix proves recovery is idempotent and re-entrant: a crash during
// replay destroys nothing, and the eventual clean recovery reaches the
// exact reference state no matter where the replay died. In the compact
// lane the replay runs over a loaded snapshot.
func TestDoubleCrashDuringRecovery(t *testing.T) {
	for _, lane := range crashLanes {
		t.Run(lane.name, func(t *testing.T) { doubleCrashDuringRecovery(t, lane.dir) })
	}
}

func doubleCrashDuringRecovery(t *testing.T, startDir func(*testing.T) string) {
	fs := durableFS()
	dir := startDir(t)
	sys, _, err := idm.OpenDurable(durableConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddFileSystem("filesystem", fs); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	want := sys.StateDigest()
	// First crash: the process dies without a clean close.
	sys.Close()

	prefixes := walPrefixDigests(t, dir)
	n := len(prefixes) - 1
	if n < 5 {
		t.Fatalf("fixture logged only %d records", n)
	}
	for k := 1; k <= n; k++ {
		t.Run(fmt.Sprintf("replay-crash-at-%02d", k), func(t *testing.T) {
			// Second crash: recovery itself dies at replayed record k.
			inj := idm.NewFaultInjector(1)
			inj.Add(idm.FaultRule{Point: store.FaultReplay, Kind: idm.FaultError, After: k - 1, Times: 1})
			if _, _, err := idm.OpenDurable(durableConfig(dir, inj)); err == nil {
				t.Fatal("injected replay crash did not abort recovery")
			} else if !errors.Is(err, store.ErrCrashed) {
				t.Fatalf("replay crash error = %v, want store.ErrCrashed", err)
			}

			// Third open, clean: recovery must be unaffected by having
			// been killed mid-replay and reach the full reference state.
			re, info, err := idm.OpenDurable(durableConfig(dir, nil))
			if err != nil {
				t.Fatalf("recovery after replay crash: %v", err)
			}
			defer re.Close()
			if len(info.Warnings) != 0 {
				t.Fatalf("re-entrant recovery produced warnings: %v", info.Warnings)
			}
			if got := re.StateDigest(); got != want {
				t.Fatalf("re-entrant recovery diverged\n got %s\nwant %s", got, want)
			}
		})
	}
}
