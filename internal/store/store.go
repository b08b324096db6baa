package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/obs"
)

// SyncPolicy selects when the WAL is fsynced; see docs/PERSISTENCE.md.
type SyncPolicy int

const (
	// SyncOnCommit (default) fsyncs at replica-commit boundaries (Edges,
	// DropSource and Meta records) and on Close — a crash loses at most
	// the uncommitted tail of one sync walk, which recovery discards
	// anyway because the last Edges record defines the commit point.
	SyncOnCommit SyncPolicy = iota
	// SyncAlways fsyncs after every record.
	SyncAlways
	// SyncNever leaves flushing to the OS (tests and bulk loads).
	SyncNever
)

// Fault-injection points the store consults (internal/fault); the crash
// matrix arms them to kill the store at exact WAL positions.
const (
	// FaultAppend fires before a record is written: a crash at a record
	// boundary.
	FaultAppend = "store/wal/append"
	// FaultTorn fires after half of a frame is written: a crash
	// mid-record, leaving a torn tail.
	FaultTorn = "store/wal/torn"
	// FaultFsync fires in place of a WAL fsync.
	FaultFsync = "store/wal/fsync"
	// FaultSnapshot fires before a snapshot file is written.
	FaultSnapshot = "store/snapshot/write"
	// FaultReplay fires once per record during Open's WAL replay: a crash
	// in the middle of recovery itself (the double-crash matrix arms it
	// to prove recovery is re-entrant).
	FaultReplay = "store/wal/replay"
)

// ErrCrashed is returned by every operation after an injected crash or
// an unrecoverable I/O error: the store refuses further writes, exactly
// as a dead process would.
var ErrCrashed = errors.New("store: crashed")

// Options tunes a Store.
type Options struct {
	// Sync selects the fsync policy (default SyncOnCommit).
	Sync SyncPolicy
	// Metrics receives the store's instruments (wal_* and store_*
	// series); nil leaves the store uninstrumented.
	Metrics *obs.Registry
	// Faults is consulted at the Fault* points; nil injects nothing.
	Faults *fault.Injector
}

type storeMetrics struct {
	appends     *obs.Counter
	appendBytes *obs.Counter
	fsyncs      *obs.Counter
	snapshots   *obs.Counter
	snapshotNs  *obs.Histogram
	recoveryNs  *obs.Histogram
	replayed    *obs.Counter
	warnings    *obs.Counter
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	return storeMetrics{
		appends:     reg.Counter("wal_appends_total"),
		appendBytes: reg.Counter("wal_append_bytes_total"),
		fsyncs:      reg.Counter("wal_fsyncs_total"),
		snapshots:   reg.Counter("store_snapshots_total"),
		snapshotNs:  reg.Histogram("store_snapshot_ns", nil),
		recoveryNs:  reg.Histogram("store_recovery_ns", nil),
		replayed:    reg.Counter("wal_replayed_records_total"),
		warnings:    reg.Counter("store_recovery_warnings_total"),
	}
}

// RecoveryInfo reports what Open reconstructed.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence of the snapshot loaded (0 = none).
	SnapshotSeq uint64
	// SnapshotViews counts views restored from the snapshot.
	SnapshotViews int
	// WALRecords counts records replayed from the segments.
	WALRecords int
	// TornTails counts segments whose final record was torn or corrupt
	// and was truncated away.
	TornTails int
	// Warnings describes everything recovery tolerated (torn tails,
	// invalid snapshots); empty for a clean recovery.
	Warnings []string
	// Views is the number of views in the recovered state.
	Views int
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
	// Trace is the recovery span tree ("recovery" → "load snapshot",
	// "replay wal"), renderable like an EXPLAIN.
	Trace *obs.Trace
}

// Store is a durable write-ahead log + snapshot store rooted at one data
// directory. All methods are safe for concurrent use.
type Store struct {
	dir    string
	walDir string
	opts   Options
	met    storeMetrics

	mu       sync.Mutex
	dead     error // non-nil after a crash; every op returns it
	state    *State
	nextLSN  uint64
	baseLSN  uint64 // WAL covers LSNs >= baseLSN; older ones live only in the snapshot
	snapSeq  uint64
	segments map[string]*os.File // source → open segment
	lock     *DirLock            // exclusive data-dir lock, held for the store's lifetime
}

// segmentName maps a source id to its WAL segment file name. Hex keeps
// arbitrary ids filesystem-safe and cannot collide with "meta.wal".
func segmentName(source string) string {
	return "seg-" + hex.EncodeToString([]byte(source)) + ".wal"
}

const metaSegment = "meta.wal"

// sourceOfSegment inverts segmentName ("" for the meta segment or an
// unparseable name).
func sourceOfSegment(name string) string {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return ""
	}
	b, err := hex.DecodeString(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"))
	if err != nil {
		return ""
	}
	return string(b)
}

// mkdirAllSynced creates dir and any missing parents like os.MkdirAll
// and, when sync is set, then fsyncs the parent of every directory it
// created, outermost first: a new directory's name is durable only once
// its parent is.
func mkdirAllSynced(dir string, sync bool) error {
	var created []string
	for d := filepath.Clean(dir); ; d = filepath.Dir(d) {
		if _, err := os.Stat(d); err == nil {
			break
		} else if !os.IsNotExist(err) {
			return err
		}
		created = append(created, d)
		if filepath.Dir(d) == d {
			break
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if !sync {
		return nil
	}
	for i := len(created) - 1; i >= 0; i-- {
		if err := syncDir(filepath.Dir(created[i])); err != nil {
			return err
		}
	}
	return nil
}

// Open opens (creating if needed) the store at dir and recovers its
// state: the newest valid snapshot is loaded, then every WAL segment is
// replayed in one LSN-ordered merge, tolerating a torn final record per
// segment (the tail is truncated with a warning). Open never fails on
// corruption — it recovers the last good prefix — only on I/O errors.
func Open(dir string, opts Options) (*Store, RecoveryInfo, error) {
	start := time.Now()
	s := &Store{
		dir:      dir,
		walDir:   filepath.Join(dir, "wal"),
		opts:     opts,
		met:      newStoreMetrics(opts.Metrics),
		state:    NewState(),
		nextLSN:  1,
		segments: make(map[string]*os.File),
	}
	// Every directory this open creates — wal/, and dir itself with any
	// missing parents — must be on disk before any record inside it is
	// acknowledged.
	if err := mkdirAllSynced(s.walDir, opts.Sync != SyncNever); err != nil {
		return nil, RecoveryInfo{}, err
	}
	lock, err := AcquireDirLock(dir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	s.lock = lock
	// Every error return below must give the lock back — a failed open
	// holds nothing.
	opened := false
	defer func() {
		if !opened {
			lock.Release()
		}
	}()
	tr := obs.NewTrace("recovery")
	info := RecoveryInfo{Trace: tr}

	// --- Phase 1: newest valid snapshot. ------------------------------
	sp := tr.Root().Start("load snapshot")
	seqs, err := listSnapshots(dir)
	if err != nil {
		return nil, info, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		img, err := os.ReadFile(snapshotPath(dir, seqs[i]))
		if err != nil {
			return nil, info, err
		}
		st, nextLSN, derr := DecodeSnapshot(img)
		if derr != nil {
			info.Warnings = append(info.Warnings,
				fmt.Sprintf("snapshot %d invalid, falling back: %v", seqs[i], derr))
			continue
		}
		s.state = st
		// Resume AT the image's next LSN, not past it: a replica that
		// applied everything below it must not be told the log moved.
		s.nextLSN = max(s.nextLSN, nextLSN)
		s.baseLSN = nextLSN
		info.SnapshotSeq = seqs[i]
		info.SnapshotViews = len(st.Views)
		break
	}
	if len(seqs) > 0 {
		s.snapSeq = seqs[len(seqs)-1]
	}
	sp.SetInt("seq", int64(info.SnapshotSeq))
	sp.SetInt("views", int64(info.SnapshotViews))
	sp.Finish()

	// --- Phase 2: merge-replay the WAL segments by LSN. ---------------
	sp = tr.Root().Start("replay wal")
	segFiles, err := os.ReadDir(s.walDir)
	if err != nil {
		return nil, info, err
	}
	var names []string
	for _, e := range segFiles {
		if strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic tie-break order
	var all []walRecord
	for _, name := range names {
		path := filepath.Join(s.walDir, name)
		res, err := replayFile(path, func(lsn uint64, rec Record) error {
			all = append(all, walRecord{lsn: lsn, rec: rec})
			return nil
		})
		if err != nil {
			return nil, info, err
		}
		if res.Warning != "" {
			info.TornTails++
			info.Warnings = append(info.Warnings, fmt.Sprintf("%s: %s (truncating tail)", name, res.Warning))
			if err := os.Truncate(path, int64(res.GoodOffset)); err != nil {
				return nil, info, err
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
	// Records below the snapshot's LSN are leftovers of a compaction that
	// died before deleting them. The image already covers them — and
	// after an interrupted Install they are a stale prefix of another
	// history, which must not be replayed over it.
	all = all[sort.Search(len(all), func(i int) bool { return all[i].lsn >= s.baseLSN }):]
	for _, wr := range all {
		if err := opts.Faults.Fail(FaultReplay); err != nil {
			// A crash during recovery replay: the directory is untouched
			// beyond the (idempotent) torn-tail truncations above, so a
			// second recovery must reach the same state.
			return nil, info, fmt.Errorf("%w: %w", ErrCrashed, err)
		}
		s.state.Apply(wr.rec)
		if wr.lsn >= s.nextLSN {
			s.nextLSN = wr.lsn + 1
		}
	}
	info.WALRecords = len(all)
	sp.SetInt("records", int64(len(all)))
	sp.SetInt("segments", int64(len(names)))
	sp.Finish()
	tr.Finish()

	info.Views = len(s.state.Views)
	info.Elapsed = time.Since(start)
	s.met.replayed.Add(int64(info.WALRecords))
	s.met.warnings.Add(int64(len(info.Warnings)))
	s.met.recoveryNs.Observe(int64(info.Elapsed))
	log := obs.Logger("store")
	for _, w := range info.Warnings {
		log.Warn("recovery tolerated corruption", "detail", w)
	}
	log.Debug("recovered", "views", info.Views, "wal_records", info.WALRecords,
		"snapshot", info.SnapshotSeq, "elapsed", info.Elapsed)
	opened = true
	return s, info, nil
}

// State returns the shadow state: the graph a recovery of the current
// directory would reconstruct. Callers must not mutate it while the
// store is in use; Clone for a stable copy.
func (s *Store) State() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Digest returns the stable-serialization digest of the durable state.
func (s *Store) Digest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Digest()
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) segment(source string) (*os.File, error) {
	name := metaSegment
	if source != "" {
		name = segmentName(source)
	}
	if f, ok := s.segments[name]; ok {
		return f, nil
	}
	path := filepath.Join(s.walDir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_APPEND|os.O_WRONLY, 0o644)
	created := err == nil
	if os.IsExist(err) {
		f, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	}
	if err != nil {
		return nil, err
	}
	// A segment this call created must be on disk before the record
	// about to go into it is acknowledged: fsyncing the file alone does
	// not make its directory entry durable.
	if created && s.opts.Sync != SyncNever {
		if err := syncDir(s.walDir); err != nil {
			f.Close()
			return nil, err
		}
	}
	s.segments[name] = f
	return f, nil
}

// crash marks the store dead and returns the wrapped cause. The dir
// lock is released: a really-crashed process loses its flock, and the
// crash-matrix tests reopen the directory within one process.
func (s *Store) crash(cause error) error {
	s.dead = fmt.Errorf("%w: %w", ErrCrashed, cause)
	s.lock.Release()
	return s.dead
}

// Append logs one record for source (source "" targets the meta
// segment) at the next LSN, applies it to the shadow state and fsyncs
// according to the policy. The record is durable (up to the fsync
// policy) before the caller applies it to any in-memory replica —
// write-ahead order.
func (s *Store) Append(source string, rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(source, s.nextLSN, rec)
}

// AppendAt is Append at a caller-assigned LSN — how a replication
// follower logs a shipped record at the position its leader gave it.
// Gaps are legal (the leader's DropSource leaves them); an LSN below
// NextLSN() is refused and leaves the store untouched and alive.
func (s *Store) AppendAt(source string, lsn uint64, rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(source, lsn, rec)
}

func (s *Store) appendLocked(source string, lsn uint64, rec Record) error {
	if s.dead != nil {
		return s.dead
	}
	if lsn < s.nextLSN {
		return fmt.Errorf("store: append at LSN %d, next LSN is %d", lsn, s.nextLSN)
	}
	frame, err := encodeFrame(nil, lsn, rec)
	if err != nil {
		return err
	}
	f, err := s.segment(source)
	if err != nil {
		return s.crash(err)
	}
	synced, err := writeFrame(f, s.state, frame, s.opts.Sync, s.opts.Faults)
	if err != nil {
		return s.crash(err)
	}
	s.nextLSN = lsn + 1
	s.met.appends.Inc()
	s.met.appendBytes.Add(int64(len(frame)))
	if synced {
		s.met.fsyncs.Inc()
	}
	return nil
}

// Flush fsyncs every open segment (a no-op under SyncNever): a follower
// calls it once per shipped batch, whatever record the batch ended on.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	if s.opts.Sync == SyncNever {
		return nil
	}
	for _, f := range s.segments {
		if err := f.Sync(); err != nil {
			return s.crash(err)
		}
		s.met.fsyncs.Inc()
	}
	return nil
}

// DropSource durably removes a source: a DropSource record (plus a Meta
// record pinning the OID counter) is committed to the meta segment, then
// the source's segment file is deleted. Replay order is safe in both
// crash windows: the drop record's LSN orders it after every record the
// deleted segment held.
func (s *Store) DropSource(source string, nextOID catalog.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked("", s.nextLSN, Record{Kind: KindDropSource, Source: source}); err != nil {
		return err
	}
	if err := s.appendLocked("", s.nextLSN, Record{Kind: KindMeta, NextOID: nextOID}); err != nil {
		return err
	}
	name := segmentName(source)
	if f, ok := s.segments[name]; ok {
		f.Close()
		delete(s.segments, name)
	}
	if err := os.Remove(filepath.Join(s.walDir, name)); err != nil && !os.IsNotExist(err) {
		return s.crash(err)
	}
	if err := syncDir(s.walDir); err != nil {
		return s.crash(err)
	}
	return nil
}

// HasSegment reports whether a WAL segment file exists for source (test
// and tooling hook).
func (s *Store) HasSegment(source string) bool {
	_, err := os.Stat(filepath.Join(s.walDir, segmentName(source)))
	return err == nil
}

// Snapshot compacts the durable state: the shadow state is written as a
// new snapshot (atomic tmp+rename), then every WAL segment and every
// older snapshot is deleted. A crash at any point leaves a recoverable
// directory — the snapshot file is the commit point, and recovery skips
// whatever WAL records below its LSN a crash left behind.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked(s.state, s.nextLSN)
}

// Install replaces the durable state with a full-state image that
// resumes at nextLSN — a follower's fallback when its leader compacted
// the history it needed. It is Snapshot with the image in place of the
// shadow state: same commit point, same crash windows (a crash before
// it recovers the pre-install state). An image below NextLSN() would
// move the log backwards and is refused. The store owns st afterwards.
func (s *Store) Install(st *State, nextLSN uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked(st, nextLSN)
}

// compactLocked makes st (resuming at nextLSN) the durable state: it
// becomes the newest snapshot and, once that is on disk, the shadow
// state; the WAL below it is deleted.
func (s *Store) compactLocked(st *State, nextLSN uint64) error {
	start := time.Now()
	if s.dead != nil {
		return s.dead
	}
	if nextLSN < s.nextLSN {
		return fmt.Errorf("store: install image at LSN %d, next LSN is %d", nextLSN, s.nextLSN)
	}
	if err := s.opts.Faults.Fail(FaultSnapshot); err != nil {
		return s.crash(err)
	}
	img, err := encodeSnapshot(st, nextLSN)
	if err != nil {
		return err
	}
	seq := s.snapSeq + 1
	if err := writeSnapshotFile(s.dir, seq, img); err != nil {
		return s.crash(err)
	}
	s.snapSeq = seq
	s.state, s.nextLSN = st, nextLSN
	// Records below nextLSN are now only recoverable from the snapshot;
	// tailing from an older LSN requires a full-state transfer.
	s.baseLSN = nextLSN
	// The snapshot is durable: the WAL segments are now redundant.
	for name, f := range s.segments {
		f.Close()
		delete(s.segments, name)
	}
	ents, err := os.ReadDir(s.walDir)
	if err == nil {
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".wal") {
				os.Remove(filepath.Join(s.walDir, e.Name()))
			}
		}
	}
	// Keep one previous snapshot as insurance against media corruption
	// of the newest; delete anything older.
	if seqs, err := listSnapshots(s.dir); err == nil {
		for _, old := range seqs {
			if old+1 < seq {
				os.Remove(snapshotPath(s.dir, old))
			}
		}
	}
	syncDir(s.dir)
	s.met.snapshots.Inc()
	s.met.snapshotNs.ObserveSince(start)
	obs.Logger("store").Debug("snapshot written", "seq", seq,
		"views", len(st.Views), "bytes", len(img), "elapsed", time.Since(start))
	return nil
}

// SnapshotSeq returns the sequence of the newest snapshot (0 = none).
func (s *Store) SnapshotSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq
}

// Close fsyncs and closes every open segment. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for name, f := range s.segments {
		if s.opts.Sync != SyncNever {
			if err := f.Sync(); err != nil {
				errs = append(errs, err)
			}
		}
		if err := f.Close(); err != nil {
			errs = append(errs, err)
		}
		delete(s.segments, name)
	}
	if s.dead == nil {
		s.dead = errors.New("store: closed")
	}
	if err := s.lock.Release(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
