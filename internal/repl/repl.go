// Package repl is the WAL-shipping replication layer: the scale-out
// story for the "networks of P2P iMeMex instances" the iDM paper's
// conclusion plans. A Leader exposes its storage engine's log as
// LSN-ordered batches; a Follower tails them over a Transport, validates
// each batch, logs the new records at their leader LSNs through a
// storage engine of its own (the Log interface — the same engine a
// leader writes through, so recovery, the shadow state, the directory
// lock and compaction are the engine's and this package does no file
// I/O), and hands them to an Applier (the rvm replay path) — so a
// caught-up follower answers queries exactly like its leader and serves
// as a read-only Peer in a Federation.
//
// The shipping format IS the WAL format: a batch's Frames field is a
// byte-concatenation of the leader's checksummed
// [len][crc32c][uvarint-LSN + record] frames, decoded with
// store.ReplayBytes. When the leader has compacted history the follower
// needs (a snapshot deleted the WAL below the follower's applied LSN),
// Ship falls back to a full-state transfer in the snapshot file format,
// which the follower's engine installs. See docs/REPLICATION.md.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/store"
)

// Batch is one shipment from leader to follower: either an incremental
// run of WAL frames or a full-state snapshot image.
type Batch struct {
	// FromLSN echoes the follower's applied LSN the shipment extends;
	// every frame carries an LSN strictly greater than it.
	FromLSN uint64
	// ToLSN is the highest LSN in Frames (== FromLSN when empty).
	ToLSN uint64
	// Count is the number of frames the leader shipped; the follower
	// rejects a batch wholesale when the decoded count disagrees.
	Count uint64
	// Frames holds WAL-framed records in ascending LSN order (nil for a
	// snapshot shipment).
	Frames []byte
	// Snapshot, when non-nil, is a full-state image in the snapshot file
	// format (store.EncodeState); the follower installs it in place of
	// incremental apply.
	Snapshot []byte
	// SnapshotLSN is the applied LSN a follower holds after installing
	// Snapshot.
	SnapshotLSN uint64
	// LeaderLSN advertises the leader's highest assigned LSN at ship
	// time — the follower's lag witness (LeaderLSN - applied).
	LeaderLSN uint64
}

// Transport moves batches from a leader to a follower. The in-process
// implementations (*Leader directly, WireTransport, ChaosTransport) keep
// the tests hermetic; a network transport only has to carry
// EncodeBatch's bytes.
type Transport interface {
	// Ship returns the records above fromLSN (or a full-state fallback).
	Ship(fromLSN uint64) (*Batch, error)
}

// LogSource is the slice of the storage engine a leader ships from —
// the LSN-ordered tail plus the full-state fallback. storage.Engine
// satisfies it; repl depends only on this surface, never on a concrete
// engine.
type LogSource interface {
	// TailSince returns every record with LSN > fromLSN in global-LSN
	// order plus the next LSN; ok is false when compaction dropped the
	// requested history and the shipper must fall back to CloneState.
	TailSince(fromLSN uint64) ([]store.TailRecord, uint64, bool, error)
	// CloneState returns a consistent full-state image and the next LSN.
	CloneState() (*store.State, uint64)
	// NextLSN returns the LSN the next appended record will receive.
	NextLSN() uint64
}

// Leader ships a durable engine's log. It implements Transport.
type Leader struct {
	st       LogSource
	maxBatch int
}

// NewLeader returns a leader over the log source.
func NewLeader(st LogSource) *Leader { return &Leader{st: st} }

// SetMaxBatch caps the records per shipped batch (0 = unlimited); small
// caps let tests exercise multi-batch catch-up.
func (l *Leader) SetMaxBatch(n int) { l.maxBatch = n }

// LSN returns the leader's highest assigned LSN.
func (l *Leader) LSN() uint64 { return l.st.NextLSN() - 1 }

// Ship returns every WAL record above fromLSN in global-LSN order,
// re-framed in the on-disk format. When the WAL no longer covers
// fromLSN (a snapshot compacted it away), it ships a full-state image
// instead. Gaps above fromLSN are legal — DropSource deletes a
// segment, and the drop record's higher LSN supersedes everything the
// deleted segment held — which is why the follower validates by count
// and monotonicity, not density.
func (l *Leader) Ship(fromLSN uint64) (*Batch, error) {
	recs, next, ok, err := l.st.TailSince(fromLSN)
	if err != nil {
		return nil, err
	}
	leaderLSN := next - 1
	if !ok {
		st, nextLSN := l.st.CloneState()
		img, err := store.EncodeState(st, nextLSN)
		if err != nil {
			return nil, err
		}
		return &Batch{
			FromLSN:     fromLSN,
			ToLSN:       nextLSN - 1,
			Snapshot:    img,
			SnapshotLSN: nextLSN - 1,
			LeaderLSN:   leaderLSN,
		}, nil
	}
	if l.maxBatch > 0 && len(recs) > l.maxBatch {
		recs = recs[:l.maxBatch]
	}
	b := &Batch{FromLSN: fromLSN, ToLSN: fromLSN, LeaderLSN: leaderLSN}
	for _, tr := range recs {
		b.Frames, err = store.AppendFrame(b.Frames, tr.LSN, tr.Rec)
		if err != nil {
			return nil, err
		}
		b.ToLSN = tr.LSN
		b.Count++
	}
	return b, nil
}

// batchMagic heads every encoded batch on the wire.
const batchMagic = "IDMSHIP1\n"

// MaxBatchBytes bounds a decoded batch payload — same spirit as
// store.MaxRecordBytes, so a corrupt length header cannot ask for an
// absurd allocation.
const MaxBatchBytes = 256 << 20

const (
	batchKindFrames   = 0
	batchKindSnapshot = 1
)

// EncodeBatch renders a batch in the wire format: magic, a kind byte,
// the five header uvarints, then the length-prefixed payload (Frames or
// Snapshot). The payload bytes are already self-checking — WAL frames
// carry per-frame CRCs and snapshot images their own framing — so the
// envelope adds no second checksum.
func EncodeBatch(b *Batch) []byte {
	out := []byte(batchMagic)
	kind := byte(batchKindFrames)
	payload := b.Frames
	if b.Snapshot != nil {
		kind = batchKindSnapshot
		payload = b.Snapshot
	}
	out = append(out, kind)
	out = binary.AppendUvarint(out, b.FromLSN)
	out = binary.AppendUvarint(out, b.ToLSN)
	out = binary.AppendUvarint(out, b.Count)
	out = binary.AppendUvarint(out, b.SnapshotLSN)
	out = binary.AppendUvarint(out, b.LeaderLSN)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

// DecodeBatch parses a wire batch. It is bounds-checked and never
// panics on arbitrary input (FuzzShipDecode pins this); payload
// validation — frame CRCs, LSN order, counts — is the follower's job.
func DecodeBatch(data []byte) (*Batch, error) {
	if len(data) < len(batchMagic)+1 {
		return nil, fmt.Errorf("repl: batch: truncated header")
	}
	if string(data[:len(batchMagic)]) != batchMagic {
		return nil, fmt.Errorf("repl: batch: bad magic")
	}
	off := len(batchMagic)
	kind := data[off]
	off++
	if kind != batchKindFrames && kind != batchKindSnapshot {
		return nil, fmt.Errorf("repl: batch: unknown kind %d", kind)
	}
	b := &Batch{}
	var plen uint64
	for _, dst := range []*uint64{&b.FromLSN, &b.ToLSN, &b.Count, &b.SnapshotLSN, &b.LeaderLSN, &plen} {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("repl: batch: bad varint at offset %d", off)
		}
		*dst = v
		off += n
	}
	if plen > MaxBatchBytes || plen != uint64(len(data)-off) {
		return nil, fmt.Errorf("repl: batch: payload length %d, %d bytes remain", plen, len(data)-off)
	}
	payload := append([]byte(nil), data[off:]...)
	if kind == batchKindSnapshot {
		b.Snapshot = payload
	} else {
		b.Frames = payload
	}
	return b, nil
}

// WireTransport round-trips every shipment through the wire encoding —
// in-process tests run the exact bytes a network transport would carry.
type WireTransport struct {
	Inner Transport
}

// Ship encodes and re-decodes the inner shipment.
func (w *WireTransport) Ship(fromLSN uint64) (*Batch, error) {
	b, err := w.Inner.Ship(fromLSN)
	if err != nil {
		return nil, err
	}
	return DecodeBatch(EncodeBatch(b))
}

// ErrBadBatch marks a shipment the follower rejected wholesale —
// nothing from it was applied, and re-pulling is the remedy. The chaos
// suite drives mutated batches into this path and proves convergence
// via retry.
var ErrBadBatch = errors.New("repl: bad batch")
