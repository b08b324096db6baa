package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"testing"

	idm "repro"
)

// itemJSON and queryResponse are the /query body as encoding/json
// structs: the shape the daemon once encoded by reflection, kept as the
// reference the append encoder must match and as the harness's decoding
// target.
type itemJSON struct {
	OID    uint64 `json:"oid"`
	Name   string `json:"name"`
	Class  string `json:"class"`
	Source string `json:"source"`
	Path   string `json:"path"`
	URI    string `json:"uri"`
}

type queryResponse struct {
	Columns    []string     `json:"columns"`
	Rows       [][]itemJSON `json:"rows"`
	Total      int          `json:"total"`
	NextCursor string       `json:"next_cursor,omitempty"`
	Stale      bool         `json:"stale,omitempty"`
}

// referenceBody is what json.Encoder writes for p with continuation
// cursor next, built the way the handler used to build it.
func referenceBody(t *testing.T, p *idm.Page, next string) []byte {
	resp := queryResponse{
		Columns:    p.Columns,
		Rows:       make([][]itemJSON, 0, len(p.Rows)),
		Total:      p.Total,
		NextCursor: next,
		Stale:      p.Stale,
	}
	for _, row := range p.Rows {
		jr := make([]itemJSON, len(row))
		for i, it := range row {
			jr[i] = itemJSON{OID: uint64(it.OID), Name: it.Name, Class: it.Class,
				Source: it.Source, Path: it.Path, URI: it.URI}
		}
		resp.Rows = append(resp.Rows, jr)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzQueryEncoding checks the append encoder byte for byte against
// encoding/json over the struct shape above, and the hand-built cursor
// against json.Marshal of pageCursor. The strings reach every escape:
// control bytes, `<>&"\`, invalid UTF-8 and U+2028/2029. shape picks
// the row count (bits 0-1), the items per row (bits 2-3, so zero-item
// rows occur), nil or empty columns (bits 4-5) and stale (bit 6).
func FuzzQueryEncoding(f *testing.F) {
	f.Add("notes.txt", "/docs/notes.txt", "file:///docs/notes.txt", "x", "", uint64(42), 1064, uint8(0b0000101))
	f.Add("a<b>&c\"d\\e", "/p\u2028q\u2029r", "\x00\x01\x1f\x7f\b\f\n\r\t", "é漢字", "eyJ2IjoxfQ", uint64(1)<<63, 0, uint8(0b1111111))
	f.Add("\xff\xfe", "\xe2\x80", "\xed\xa0\x80", "\xc3", "<&>", uint64(0), -1, uint8(0b0011010))
	f.Add("", "", "", "", "", uint64(7), 3, uint8(0b0100111))
	f.Fuzz(func(t *testing.T, name, path, uri, col, cursor string, oid uint64, total int, shape uint8) {
		var cols []string
		switch shape >> 4 & 3 {
		case 1:
			cols = []string{}
		case 2:
			cols = []string{col}
		case 3:
			cols = []string{col, name}
		}
		p := &idm.Page{Columns: cols, Total: total, Stale: shape&64 != 0}
		for r := 0; r < int(shape&3); r++ {
			row := idm.Row{}
			for i := 0; i < int(shape>>2&3); i++ {
				row = append(row, idm.Item{OID: idm.OID(oid + uint64(r*3+i)), Name: name,
					Class: col, Source: cursor, URI: uri, Path: path})
			}
			p.Rows = append(p.Rows, row)
		}
		want := referenceBody(t, p, cursor)
		if got := appendQueryResponse(nil, p, cursor); !bytes.Equal(got, want) {
			t.Fatalf("query body differs from encoding/json:\n got %q\nwant %q", got, want)
		}

		for _, last := range [][]idm.OID{{idm.OID(oid)}, {idm.OID(oid), idm.OID(total)}} {
			b, err := json.Marshal(pageCursor{V: cursorVersion, Q: cursor, Last: last})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := encodeCursor(cursor, last), base64.RawURLEncoding.EncodeToString(b); got != want {
				t.Fatalf("cursor %q %v: %s, encoding/json gives %s", cursor, last, got, want)
			}
		}
	})
}
