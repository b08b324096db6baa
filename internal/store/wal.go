package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/fault"
)

// Frame layout: [len uint32le][crc32c uint32le][payload], where payload
// is uvarint(LSN) + EncodeRecord bytes and the checksum covers the whole
// payload. len == 0 is invalid (no record encodes to an empty payload),
// which makes zero-filled pages — the classic lost-write corruption —
// detectably corrupt instead of an endless stream of empty records.
const frameHeaderLen = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame appends a framed payload carrying lsn and rec to b.
func encodeFrame(b []byte, lsn uint64, rec Record) ([]byte, error) {
	payloadStart := len(b) + frameHeaderLen
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	b = appendUvarint(b, lsn)
	b, err := EncodeRecord(b, rec)
	if err != nil {
		return b, err
	}
	payload := b[payloadStart:]
	if len(payload) > MaxRecordBytes {
		return b, fmt.Errorf("store: record of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	binary.LittleEndian.PutUint32(b[payloadStart-8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[payloadStart-4:], crc32.Checksum(payload, crcTable))
	return b, nil
}

// AppendFrame appends a framed payload carrying lsn and rec to b using
// the exact on-disk WAL frame layout — the replication shipping format
// is the WAL format, so followers decode batches with ReplayBytes.
func AppendFrame(b []byte, lsn uint64, rec Record) ([]byte, error) {
	return encodeFrame(b, lsn, rec)
}

// writeFrame is the append sequence run on an encoded frame: consult
// FaultAppend and FaultTorn (which leaves half the frame on disk), write
// the frame to f, fold the re-decoded payload into st, and fsync by
// policy — at commit records (Edges, DropSource, Meta) under
// SyncOnCommit. It reports whether it fsynced. Every error is fatal to
// the calling store: f may end in a torn frame, or st may no longer be
// what a replay of f reconstructs.
func writeFrame(f *os.File, st *State, frame []byte, policy SyncPolicy, faults *fault.Injector) (synced bool, err error) {
	if err := faults.Fail(FaultAppend); err != nil {
		return false, err
	}
	if err := faults.Fail(FaultTorn); err != nil {
		// Simulate a crash mid-write: half the frame reaches the disk.
		f.Write(frame[:len(frame)/2])
		f.Sync()
		return false, err
	}
	if _, err := f.Write(frame); err != nil {
		return false, err
	}
	// Apply the decoded payload, not the caller's record: roundtripping
	// normalizes times and nil slices, and the shadow state must equal a
	// replay of the bytes just written. A frame this package just encoded
	// must decode; carrying on past a failure would let the two diverge
	// silently.
	payload := frame[frameHeaderLen:]
	_, n := binary.Uvarint(payload)
	if n <= 0 {
		return false, fmt.Errorf("store: re-decoding appended frame: bad LSN varint")
	}
	rec, err := DecodeRecord(payload[n:])
	if err != nil {
		return false, fmt.Errorf("store: re-decoding appended frame: %w", err)
	}
	st.Apply(rec)

	commit := rec.Kind == KindEdges || rec.Kind == KindDropSource || rec.Kind == KindMeta
	if policy == SyncAlways || (policy == SyncOnCommit && commit) {
		if err := faults.Fail(FaultFsync); err != nil {
			return false, err
		}
		if err := f.Sync(); err != nil {
			return false, err
		}
		synced = true
	}
	return synced, nil
}

// walRecord is one decoded WAL record with its log sequence number.
type walRecord struct {
	lsn uint64
	rec Record
}

// ReplayResult reports how far a replay got through one byte stream.
type ReplayResult struct {
	Records int
	// goodOffset is the byte offset just past the last valid frame; a
	// torn or corrupt tail starts there.
	GoodOffset int
	// warning describes why the replay stopped early ("" when the whole
	// stream was consumed cleanly).
	Warning string
}

// ReplayBytes decodes frames from b in order, calling fn for each
// record. It stops at the first torn or corrupt frame — the recovery
// contract is "last good prefix" — and reports how far it got. It never
// panics on arbitrary input (FuzzWALDecode pins this).
func ReplayBytes(b []byte, fn func(lsn uint64, rec Record) error) (ReplayResult, error) {
	var res ReplayResult
	off := 0
	for {
		if off == len(b) {
			res.GoodOffset = off
			return res, nil
		}
		if len(b)-off < frameHeaderLen {
			res.GoodOffset = off
			res.Warning = fmt.Sprintf("torn frame header at offset %d (%d trailing bytes)", off, len(b)-off)
			return res, nil
		}
		plen := int(binary.LittleEndian.Uint32(b[off:]))
		crc := binary.LittleEndian.Uint32(b[off+4:])
		if plen == 0 || plen > MaxRecordBytes || plen > len(b)-off-frameHeaderLen {
			res.GoodOffset = off
			res.Warning = fmt.Sprintf("invalid frame length %d at offset %d", plen, off)
			return res, nil
		}
		payload := b[off+frameHeaderLen : off+frameHeaderLen+plen]
		if crc32.Checksum(payload, crcTable) != crc {
			res.GoodOffset = off
			res.Warning = fmt.Sprintf("checksum mismatch at offset %d", off)
			return res, nil
		}
		lsn, n := binary.Uvarint(payload)
		if n <= 0 {
			res.GoodOffset = off
			res.Warning = fmt.Sprintf("bad LSN varint at offset %d", off)
			return res, nil
		}
		rec, err := DecodeRecord(payload[n:])
		if err != nil {
			// The frame checksummed correctly but does not decode: a
			// format bug or a deliberate corruption that preserved the
			// CRC. Treat it like a torn tail.
			res.GoodOffset = off
			res.Warning = fmt.Sprintf("undecodable record at offset %d: %v", off, err)
			return res, nil
		}
		if err := fn(lsn, rec); err != nil {
			return res, err
		}
		res.Records++
		off += frameHeaderLen + plen
	}
}

// replayFile replays one segment file, tolerating a missing file (an
// empty segment) and a torn tail.
func replayFile(path string, fn func(lsn uint64, rec Record) error) (ReplayResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ReplayResult{}, nil
		}
		return ReplayResult{}, err
	}
	return ReplayBytes(b, fn)
}
