package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// snapshotMagic heads every snapshot file; a file without it (or without
// the terminating KindSnapshotEnd frame) is invalid and recovery falls
// back to the previous snapshot, then to an empty state.
const snapshotMagic = "IDMSNAP1\n"

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", seq))
}

// encodeSnapshot renders a snapshot file image: magic, the state's
// canonical record sequence framed like WAL records (every frame
// carrying the snapshot's LSN watermark), then a SnapshotEnd frame.
func encodeSnapshot(st *State, nextLSN uint64) ([]byte, error) {
	b := []byte(snapshotMagic)
	var err error
	for _, rec := range st.Records() {
		if rec.Kind == KindMeta {
			rec.NextLSN = nextLSN
		}
		if b, err = encodeFrame(b, nextLSN, rec); err != nil {
			return nil, err
		}
	}
	b, err = encodeFrame(b, nextLSN, Record{Kind: KindSnapshotEnd})
	return b, err
}

// EncodeState renders a full-state image in the snapshot file format —
// replication full-state transfers reuse it so followers install leader
// images with the same DecodeSnapshot path recovery uses.
func EncodeState(st *State, nextLSN uint64) ([]byte, error) {
	return encodeSnapshot(st, nextLSN)
}

// DecodeSnapshot parses a snapshot image into a state. Unlike WAL
// replay, a snapshot is all-or-nothing: any torn or corrupt frame, or a
// missing end marker, invalidates the whole file (it was written
// atomically, so damage means the write never completed or the media
// corrupted it). Never panics on arbitrary input (FuzzSnapshotLoad).
func DecodeSnapshot(b []byte) (*State, uint64, error) {
	if len(b) < len(snapshotMagic) {
		return nil, 0, fmt.Errorf("store: snapshot: truncated header")
	}
	if string(b[:len(snapshotMagic)]) != snapshotMagic {
		return nil, 0, fmt.Errorf("store: snapshot: bad magic")
	}
	st := NewState()
	var nextLSN uint64
	ended := false
	res, err := ReplayBytes(b[len(snapshotMagic):], func(lsn uint64, rec Record) error {
		if ended {
			return fmt.Errorf("store: snapshot: frames after end marker")
		}
		switch rec.Kind {
		case KindSnapshotEnd:
			ended = true
		case KindMeta:
			if rec.NextLSN > nextLSN {
				nextLSN = rec.NextLSN
			}
			st.Apply(rec)
		default:
			st.Apply(rec)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if res.Warning != "" {
		return nil, 0, fmt.Errorf("store: snapshot: %s", res.Warning)
	}
	if !ended {
		return nil, 0, fmt.Errorf("store: snapshot: missing end marker")
	}
	return st, nextLSN, nil
}

// writeSnapshotFile atomically writes the snapshot image for seq:
// tmp file → fsync → rename → fsync(dir).
func writeSnapshotFile(dir string, seq uint64, img []byte) error {
	tmp := filepath.Join(dir, fmt.Sprintf(".snap-%016d.tmp", seq))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, snapshotPath(dir, seq)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// listSnapshots returns the snapshot sequence numbers present in dir,
// ascending.
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// syncDir fsyncs a directory, making the creates, renames and unlinks
// inside it durable against power loss. The store crashes on failure
// wherever its crash-ordering argument needs one batch of directory
// operations on disk before the next begins. A variable so a test can
// count the calls.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
