package storage

import (
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/store"
)

// SegmentMagic heads every compacted segment file. A segment is written
// atomically (tmp + rename) and is immutable afterwards, so — like a
// snapshot — it is all-or-nothing: any damage invalidates the whole
// file rather than yielding a partial source.
const SegmentMagic = "IDMCSEG1\n"

// segmentFileName maps a source id to its compacted segment file name;
// hex keeps arbitrary ids filesystem-safe and cannot collide with
// "meta.seg" or "tail.wal".
func segmentFileName(source string) string {
	return "src-" + hex.EncodeToString([]byte(source)) + ".seg"
}

// metaSegmentFile carries the OID counter and the compaction watermark.
const metaSegmentFile = "meta.seg"

// tailFile is the single append log carrying every record since the
// last compaction, in the WAL frame format (no magic — byte-compatible
// with a store WAL segment, so ReplayBytes and the replication shipping
// format apply unchanged).
const tailFile = "tail.wal"

// sourceOfSegmentFile inverts segmentFileName ("" for meta/unparseable).
func sourceOfSegmentFile(name string) (string, bool) {
	if !strings.HasPrefix(name, "src-") || !strings.HasSuffix(name, ".seg") {
		return "", false
	}
	b, err := hex.DecodeString(strings.TrimSuffix(strings.TrimPrefix(name, "src-"), ".seg"))
	if err != nil {
		return "", false
	}
	return string(b), true
}

// encodeSegment renders one compacted segment image: magic, the records
// framed in the WAL format (each frame carrying the compaction's LSN
// watermark), then a SnapshotEnd frame. For a source segment the
// records are its views in ascending OID order followed by one Edges
// record — a sorted scan a cold start can feed straight into the bulk
// index build.
func encodeSegment(recs []store.Record, watermark uint64) ([]byte, error) {
	b := []byte(SegmentMagic)
	var err error
	for _, rec := range recs {
		if b, err = store.AppendFrame(b, watermark, rec); err != nil {
			return nil, err
		}
	}
	return store.AppendFrame(b, watermark, store.Record{Kind: store.KindSnapshotEnd})
}

// DecodeSegment parses a compacted segment image into its records and
// LSN watermark. All-or-nothing: bad magic, a torn or corrupt frame, a
// missing end marker, or trailing frames all invalidate the whole
// segment. Never panics on arbitrary input (FuzzSegmentDecode).
func DecodeSegment(b []byte) ([]store.Record, uint64, error) {
	if len(b) < len(SegmentMagic) {
		return nil, 0, fmt.Errorf("storage: segment: truncated header")
	}
	if string(b[:len(SegmentMagic)]) != SegmentMagic {
		return nil, 0, fmt.Errorf("storage: segment: bad magic")
	}
	var recs []store.Record
	var watermark uint64
	ended := false
	res, err := store.ReplayBytes(b[len(SegmentMagic):], func(lsn uint64, rec store.Record) error {
		if ended {
			return fmt.Errorf("storage: segment: frames after end marker")
		}
		if rec.Kind == store.KindSnapshotEnd {
			ended = true
			watermark = lsn
			return nil
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if res.Warning != "" {
		return nil, 0, fmt.Errorf("storage: segment: %s", res.Warning)
	}
	if !ended {
		return nil, 0, fmt.Errorf("storage: segment: missing end marker")
	}
	return recs, watermark, nil
}

// sourceSegmentRecords flattens one source's slice of the state into
// the canonical segment sequence: views ascending by OID, then one
// Edges record (parents ascending, child order preserved).
func sourceSegmentRecords(st *store.State, source string) []store.Record {
	var oids []catalog.OID
	for oid, v := range st.Views {
		if v.Entry.Source == source {
			oids = append(oids, oid)
		}
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	recs := make([]store.Record, 0, len(oids)+1)
	for _, oid := range oids {
		recs = append(recs, store.Record{Kind: store.KindUpsert, View: st.Views[oid]})
	}
	if edges := st.Edges[source]; len(edges) > 0 {
		parents := make([]catalog.OID, 0, len(edges))
		for p := range edges {
			parents = append(parents, p)
		}
		sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
		rec := store.Record{Kind: store.KindEdges, Source: source}
		for _, p := range parents {
			rec.Edges = append(rec.Edges, store.EdgeList{Parent: p, Children: edges[p]})
		}
		recs = append(recs, rec)
	}
	return recs
}

// writeFileAtomic writes b to path via tmp + fsync + rename.
func writeFileAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
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
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
