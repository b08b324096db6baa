package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/store"
)

// CompactStore is the read-optimized storage engine: one immutable,
// sorted, checksummed segment file per source plus a single append
// tail. A compaction (Snapshot) rewrites every source's segment from
// the shadow state and truncates the tail, so steady-state recovery is
// a sequential scan of sorted segments — which feeds the counting
// bulk index build directly — instead of an LSN merge across per-source
// WALs.
//
// Layout under <dir>/compact/:
//
//	src-<hex(source)>.seg  one sorted segment per source (views by
//	                       ascending OID, then one Edges record), framed
//	                       at the compaction watermark, SnapshotEnd
//	                       terminated; written atomically, immutable
//	meta.seg               Meta record (OID counter) at the watermark
//	tail.wal               WAL-framed records since the last compaction
//
// Crash safety relies on ordering, not on a manifest: segments are
// rewritten first, then stale segments of no-longer-live sources are
// removed, then — after a directory fsync — meta.seg is written (the
// commit point) and fsynced, and only then is the tail truncated. Every
// crash window leaves a directory whose replay (segments, then tail
// records at or above the meta watermark) reconstructs the same state,
// because upserts carry full view state and edge commits are full
// replacements, and because before the commit point the not-yet-
// truncated tail still carries every remove/drop record a stale segment
// would need. As a backstop, recovery deletes any source segment whose
// watermark predates meta.seg's: it can only be a leftover of a
// compaction that had already retired its source.
type CompactStore struct {
	dir    string
	segDir string
	opts   Options
	met    compactMetrics

	mu      sync.Mutex
	dead    error // non-nil after a crash; every op returns it
	state   *store.State
	nextLSN uint64
	baseLSN uint64 // tail serves LSNs >= baseLSN; older history is compacted
	snapSeq uint64 // watermark LSN of the newest completed compaction
	tail    *os.File
	lock    *store.DirLock // exclusive data-dir lock, held for the engine's lifetime
}

type compactMetrics struct {
	appends     *obs.Counter
	appendBytes *obs.Counter
	fsyncs      *obs.Counter
	compactions *obs.Counter
	compactNs   *obs.Histogram
	recoveryNs  *obs.Histogram
	replayed    *obs.Counter
	warnings    *obs.Counter
}

func newCompactMetrics(reg *obs.Registry) compactMetrics {
	return compactMetrics{
		appends:     reg.Counter("cstore_appends_total"),
		appendBytes: reg.Counter("cstore_append_bytes_total"),
		fsyncs:      reg.Counter("cstore_fsyncs_total"),
		compactions: reg.Counter("cstore_compactions_total"),
		compactNs:   reg.Histogram("cstore_compaction_ns", nil),
		recoveryNs:  reg.Histogram("cstore_recovery_ns", nil),
		replayed:    reg.Counter("cstore_replayed_records_total"),
		warnings:    reg.Counter("cstore_recovery_warnings_total"),
	}
}

// OpenCompact opens (creating if needed) the compacted engine at dir
// and recovers its state: every valid segment is applied, then the tail
// is replayed in LSN order, skipping records the newest compaction
// already covers. Like store.Open it tolerates most corruption — a
// damaged source segment is skipped with a warning (a replica re-syncs;
// see docs/PERSISTENCE.md), a torn tail is truncated — with one
// exception: a damaged meta.seg fails the open, because it alone pins
// the OID counter past dropped sources and silently dropping that pin
// would let a primary re-issue their OIDs.
func OpenCompact(dir string, opts Options) (*CompactStore, store.RecoveryInfo, error) {
	start := time.Now()
	c := &CompactStore{
		dir:     dir,
		segDir:  filepath.Join(dir, "compact"),
		opts:    opts,
		met:     newCompactMetrics(opts.Metrics),
		state:   store.NewState(),
		nextLSN: 1,
	}
	if err := os.MkdirAll(c.segDir, 0o755); err != nil {
		return nil, store.RecoveryInfo{}, err
	}
	lock, err := store.AcquireDirLock(dir)
	if err != nil {
		return nil, store.RecoveryInfo{}, err
	}
	c.lock = lock
	opened := false
	defer func() {
		if !opened {
			if c.tail != nil {
				c.tail.Close()
			}
			lock.Release()
		}
	}()
	tr := obs.NewTrace("recovery")
	info := store.RecoveryInfo{Trace: tr}

	// --- Phase 1: apply the compacted segments. -----------------------
	sp := tr.Root().Start("load segments")
	ents, err := os.ReadDir(c.segDir)
	if err != nil {
		return nil, info, err
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			// A compaction died mid-write; the rename never happened.
			os.Remove(filepath.Join(c.segDir, e.Name()))
			continue
		}
		if strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic; segments touch disjoint sources
	log := obs.Logger("storage/compact")

	// meta.seg first: it is written after every source segment, so its
	// watermark marks the newest *completed* compaction — the commit
	// point every other segment and the tail are judged against. Unlike
	// a source segment, a damaged meta.seg cannot be warn-and-skipped:
	// it alone pins the OID counter past DropSource, and losing the pin
	// would let a primary re-issue dropped sources' OIDs.
	if img, err := os.ReadFile(filepath.Join(c.segDir, metaSegmentFile)); err == nil {
		recs, watermark, derr := DecodeSegment(img)
		if derr != nil {
			return nil, info, fmt.Errorf("storage: %s invalid: %w (the OID-counter pin is unrecoverable; restore the file or re-sync the directory)",
				metaSegmentFile, derr)
		}
		for _, rec := range recs {
			c.state.Apply(rec)
		}
		// Resume AT the watermark, not past it: a replica that applied
		// everything below it must not be told the log moved.
		c.nextLSN = max(c.nextLSN, watermark)
		c.baseLSN = watermark
		c.snapSeq = watermark
	} else if !os.IsNotExist(err) {
		return nil, info, err
	}
	segCount := 0
	for _, name := range names {
		if _, ok := sourceOfSegmentFile(name); !ok {
			continue
		}
		img, err := os.ReadFile(filepath.Join(c.segDir, name))
		if err != nil {
			return nil, info, err
		}
		recs, watermark, derr := DecodeSegment(img)
		if derr != nil {
			info.Warnings = append(info.Warnings,
				fmt.Sprintf("%s invalid, skipping segment: %v", name, derr))
			continue
		}
		if watermark < c.baseLSN {
			// Leftover of a compaction that had retired this source and
			// crashed between the meta.seg write and the stale-segment
			// sweep. Applying it would resurrect data whose remove/drop
			// records sit below the new watermark (and so are never
			// replayed); finish the interrupted removal instead.
			os.Remove(filepath.Join(c.segDir, name))
			log.Debug("removed stale segment left by an interrupted compaction",
				"segment", name, "watermark", watermark, "meta_watermark", c.baseLSN)
			continue
		}
		// A watermark above meta.seg's marks a compaction or install that
		// died before its commit point. It does not move the position:
		// the tail still ends where the log did, so an interrupted
		// install leaves its follower below the leader's base and the
		// image is shipped again.
		for _, rec := range recs {
			c.state.Apply(rec)
		}
		segCount++
	}
	info.SnapshotSeq = c.snapSeq
	info.SnapshotViews = len(c.state.Views)
	sp.SetInt("segments", int64(segCount))
	sp.SetInt("views", int64(info.SnapshotViews))
	sp.Finish()

	// --- Phase 2: replay the tail in LSN order. -----------------------
	sp = tr.Root().Start("replay tail")
	tailPath := filepath.Join(c.segDir, tailFile)
	var tailRecs []store.TailRecord
	if b, err := os.ReadFile(tailPath); err == nil {
		res, rerr := store.ReplayBytes(b, func(lsn uint64, rec store.Record) error {
			tailRecs = append(tailRecs, store.TailRecord{LSN: lsn, Rec: rec})
			return nil
		})
		if rerr != nil {
			return nil, info, rerr
		}
		if res.Warning != "" {
			info.TornTails++
			info.Warnings = append(info.Warnings,
				fmt.Sprintf("%s: %s (truncating tail)", tailFile, res.Warning))
			if err := os.Truncate(tailPath, int64(res.GoodOffset)); err != nil {
				return nil, info, err
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, info, err
	}
	applied := 0
	for _, trec := range tailRecs {
		if trec.LSN >= c.nextLSN {
			c.nextLSN = trec.LSN + 1
		}
		if trec.LSN < c.baseLSN {
			// A crash hit between meta.seg and the tail truncation: the
			// compaction already folded this record into the segments.
			continue
		}
		if err := c.opts.Faults.Fail(store.FaultReplay); err != nil {
			// A crash during recovery replay: the directory is untouched
			// beyond the (idempotent) cleanup above, so a second recovery
			// must reach the same state.
			return nil, info, fmt.Errorf("%w: %w", store.ErrCrashed, err)
		}
		c.state.Apply(trec.Rec)
		applied++
	}
	info.WALRecords = applied
	sp.SetInt("records", int64(applied))
	sp.Finish()
	tr.Finish()

	f, err := os.OpenFile(tailPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, info, err
	}
	c.tail = f

	info.Views = len(c.state.Views)
	info.Elapsed = time.Since(start)
	c.met.replayed.Add(int64(info.WALRecords))
	c.met.warnings.Add(int64(len(info.Warnings)))
	c.met.recoveryNs.Observe(int64(info.Elapsed))
	for _, w := range info.Warnings {
		log.Warn("recovery tolerated corruption", "detail", w)
	}
	log.Debug("recovered", "views", info.Views, "tail_records", info.WALRecords,
		"watermark", c.snapSeq, "elapsed", info.Elapsed)
	opened = true
	return c, info, nil
}

// crash marks the engine dead and returns the wrapped cause. The dir
// lock is released: a really-crashed process loses its flock, and the
// crash-matrix tests reopen the directory within one process.
func (c *CompactStore) crash(cause error) error {
	c.dead = fmt.Errorf("%w: %w", store.ErrCrashed, cause)
	c.lock.Release()
	return c.dead
}

// Append logs one record to the tail at the next LSN, applies it to the
// shadow state and fsyncs according to the policy — write-ahead order.
// The source routes nothing here: every record lands in the single tail.
func (c *CompactStore) Append(_ string, rec store.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appendLocked(c.nextLSN, rec)
}

// AppendAt is Append at a caller-assigned LSN — how a replication
// follower logs a shipped record at the position its leader gave it.
// Gaps are legal; an LSN below NextLSN() is refused and leaves the
// engine untouched and alive.
func (c *CompactStore) AppendAt(_ string, lsn uint64, rec store.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appendLocked(lsn, rec)
}

func (c *CompactStore) appendLocked(lsn uint64, rec store.Record) error {
	if c.dead != nil {
		return c.dead
	}
	if lsn < c.nextLSN {
		return fmt.Errorf("storage: append at LSN %d, next LSN is %d", lsn, c.nextLSN)
	}
	frame, err := store.AppendFrame(nil, lsn, rec)
	if err != nil {
		return err
	}
	synced, err := store.WriteFrame(c.tail, c.state, frame, c.opts.Sync, c.opts.Faults)
	if err != nil {
		return c.crash(err)
	}
	c.nextLSN = lsn + 1
	c.met.appends.Inc()
	c.met.appendBytes.Add(int64(len(frame)))
	if synced {
		c.met.fsyncs.Inc()
	}
	return nil
}

// Flush fsyncs the tail (a no-op under SyncNever): a follower calls it
// once per shipped batch, whatever record the batch ended on.
func (c *CompactStore) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return c.dead
	}
	if c.opts.Sync == store.SyncNever {
		return nil
	}
	if err := c.tail.Sync(); err != nil {
		return c.crash(err)
	}
	c.met.fsyncs.Inc()
	return nil
}

// DropSource durably removes a source: a DropSource record (plus a Meta
// record pinning the OID counter) is committed to the tail, then the
// source's compacted segment is deleted. Both crash windows replay
// safely — the drop record's LSN orders it after everything the deleted
// segment held.
func (c *CompactStore) DropSource(source string, nextOID catalog.OID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.appendLocked(c.nextLSN, store.Record{Kind: store.KindDropSource, Source: source}); err != nil {
		return err
	}
	if err := c.appendLocked(c.nextLSN, store.Record{Kind: store.KindMeta, NextOID: nextOID}); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(c.segDir, segmentFileName(source))); err != nil && !os.IsNotExist(err) {
		return c.crash(err)
	}
	if err := store.SyncDir(c.segDir); err != nil {
		return c.crash(err)
	}
	return nil
}

// HasSegment reports whether a compacted segment file exists for source
// (test and tooling hook).
func (c *CompactStore) HasSegment(source string) bool {
	_, err := os.Stat(filepath.Join(c.segDir, segmentFileName(source)))
	return err == nil
}

// Snapshot compacts: every live source's segment is rewritten from the
// shadow state at the current watermark, stale segments are removed,
// meta.seg is updated, and the tail is truncated — with a directory
// fsync between each step so the order holds through power loss. Write
// order makes every crash window recoverable (see the type comment);
// replaying sub-watermark tail records is skipped on recovery, so a
// completed meta.seg write is the commit point.
func (c *CompactStore) Snapshot() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compactLocked(c.state, c.nextLSN)
}

// Install replaces the durable state with a full-state image that
// resumes at nextLSN — a follower's fallback when its leader compacted
// the history it needed. It is Snapshot with the image in place of the
// shadow state. An image below NextLSN() would move the log backwards
// and is refused. A crash between the first rewritten segment and the
// meta.seg commit point recovers a mix of old and new sources at the
// OLD position, which is below the leader's base, so the next pull
// installs the image again. The engine owns st afterwards.
func (c *CompactStore) Install(st *store.State, nextLSN uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compactLocked(st, nextLSN)
}

// compactLocked makes st the durable state at watermark: segments, then
// meta.seg, then the tail truncate; st becomes the shadow state once all
// of it is on disk.
func (c *CompactStore) compactLocked(st *store.State, watermark uint64) error {
	start := time.Now()
	if c.dead != nil {
		return c.dead
	}
	if watermark < c.nextLSN {
		return fmt.Errorf("storage: install image at LSN %d, next LSN is %d", watermark, c.nextLSN)
	}
	if err := c.opts.Faults.Fail(store.FaultSnapshot); err != nil {
		return c.crash(err)
	}

	// Live sources: everything the shadow state mentions.
	live := make(map[string]bool)
	for _, v := range st.Views {
		live[v.Entry.Source] = true
	}
	for src := range st.Edges {
		live[src] = true
	}
	srcs := make([]string, 0, len(live))
	for src := range live {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)

	for _, src := range srcs {
		img, err := encodeSegment(sourceSegmentRecords(st, src), watermark)
		if err != nil {
			return err
		}
		if err := writeFileAtomic(filepath.Join(c.segDir, segmentFileName(src)), img); err != nil {
			return c.crash(err)
		}
	}

	// Remove segments of sources that no longer exist — strictly BEFORE
	// the commit point: once meta.seg's watermark passes the tail's
	// remove/drop records, a surviving stale segment would resurrect
	// deleted data on recovery. In this window the not-yet-truncated
	// tail still carries those records, so replay converges either way.
	ents, err := os.ReadDir(c.segDir)
	if err != nil {
		return c.crash(err)
	}
	for _, e := range ents {
		if src, ok := sourceOfSegmentFile(e.Name()); ok && !live[src] {
			if err := os.Remove(filepath.Join(c.segDir, e.Name())); err != nil && !os.IsNotExist(err) {
				return c.crash(err)
			}
		}
	}
	// Make the segment renames and removals durable before meta.seg can
	// land: on power loss, new meta over old segments would lose every
	// record between the two watermarks.
	if err := store.SyncDir(c.segDir); err != nil {
		return c.crash(err)
	}

	metaImg, err := encodeSegment([]store.Record{{Kind: store.KindMeta, NextOID: st.NextOID}}, watermark)
	if err != nil {
		return err
	}
	// The commit point: once meta.seg carries the new watermark, recovery
	// ignores the (now redundant) tail below it.
	if err := writeFileAtomic(filepath.Join(c.segDir, metaSegmentFile), metaImg); err != nil {
		return c.crash(err)
	}
	// ... and the commit point must be durable before the tail goes:
	// recovery may skip sub-watermark tail records only because meta.seg
	// promises the segments cover them.
	if err := store.SyncDir(c.segDir); err != nil {
		return c.crash(err)
	}

	// The segments are durable: the tail is now redundant.
	if err := c.tail.Close(); err != nil {
		return c.crash(err)
	}
	f, err := os.OpenFile(filepath.Join(c.segDir, tailFile), os.O_CREATE|os.O_TRUNC|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return c.crash(err)
	}
	c.tail = f
	if err := store.SyncDir(c.segDir); err != nil {
		return c.crash(err)
	}

	c.state, c.nextLSN = st, watermark
	c.baseLSN = watermark
	c.snapSeq = watermark
	c.met.compactions.Inc()
	c.met.compactNs.ObserveSince(start)
	obs.Logger("storage/compact").Debug("compacted", "watermark", watermark,
		"sources", len(srcs), "views", len(st.Views), "elapsed", time.Since(start))
	return nil
}

// SnapshotSeq identifies the newest completed compaction by its
// watermark LSN (0 = never compacted); monotonically non-decreasing.
func (c *CompactStore) SnapshotSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapSeq
}

// State returns the shadow state. Callers must not mutate it.
func (c *CompactStore) State() *store.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Digest returns the stable-serialization digest of the durable state.
func (c *CompactStore) Digest() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.Digest()
}

// Dir returns the data directory.
func (c *CompactStore) Dir() string { return c.dir }

// NextLSN returns the LSN the next appended record will receive.
func (c *CompactStore) NextLSN() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextLSN
}

// BaseLSN returns the lowest LSN the tail still serves (0 before any
// compaction: the tail covers everything).
func (c *CompactStore) BaseLSN() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.baseLSN
}

// TailSince returns every tail record with LSN > fromLSN in LSN order
// plus the next LSN; ok is false when a compaction dropped the history
// below fromLSN+1 and the caller must fall back to CloneState. Reads
// happen under the engine mutex, so a half-written frame or concurrent
// truncation can never be observed.
func (c *CompactStore) TailSince(fromLSN uint64) ([]store.TailRecord, uint64, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return nil, 0, false, c.dead
	}
	if fromLSN+1 < c.baseLSN {
		return nil, c.nextLSN, false, nil
	}
	b, err := os.ReadFile(filepath.Join(c.segDir, tailFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, false, err
	}
	var out []store.TailRecord
	res, rerr := store.ReplayBytes(b, func(lsn uint64, rec store.Record) error {
		if lsn > fromLSN {
			out = append(out, store.TailRecord{LSN: lsn, Rec: rec})
		}
		return nil
	})
	if rerr != nil {
		return nil, 0, false, rerr
	}
	if res.Warning != "" {
		// Appends hold the mutex for the full frame write, so a torn tail
		// here is real on-disk damage, not a read race.
		return nil, 0, false, fmt.Errorf("storage: tail %s: %s", tailFile, res.Warning)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].LSN < out[j].LSN })
	return out, c.nextLSN, true, nil
}

// CloneState returns a deep copy of the shadow state and the next LSN —
// a consistent full-state image for replication fallback.
func (c *CompactStore) CloneState() (*store.State, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.Clone(), c.nextLSN
}

// Close fsyncs and closes the tail and releases the data-dir lock. The
// engine is unusable afterwards.
func (c *CompactStore) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	if c.tail != nil {
		if c.opts.Sync != store.SyncNever {
			if err := c.tail.Sync(); err != nil {
				errs = append(errs, err)
			}
		}
		if err := c.tail.Close(); err != nil {
			errs = append(errs, err)
		}
		c.tail = nil
	}
	if c.dead == nil {
		c.dead = errors.New("storage: compact store closed")
	}
	if err := c.lock.Release(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
