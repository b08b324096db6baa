package server

import (
	"bytes"
	"net/http/httptest"
	"slices"
	"testing"

	idm "repro"
)

// FuzzServerRequest beats on the daemon's request-decoding surface:
// the strict JSON decoder behind /query and /sources, and the opaque
// cursor parser. All three must reject garbage with an error — never
// panic, never accept a cursor that fails to round-trip.
func FuzzServerRequest(f *testing.F) {
	f.Add([]byte(`{"q":"\"alpha\"","limit":3}`))
	f.Add([]byte(`{"q":"//docs//*","cursor":"` + encodeCursor(queryHash(`//docs//*`), []idm.OID{42}) + `"}`))
	f.Add([]byte(`{"q":"x","cursor":"!!not base64!!"}`))
	f.Add([]byte(`{"id":"docs","files":{"/a.txt":"hello"},"sync":true}`))
	f.Add([]byte(`{"type":"dataset","scale":0.01,"seed":7}`))
	f.Add([]byte(`{"q":"x"} trailing`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`eyJ2IjoxLCJxIjoiMDAwMDAwMDAwMDAwMDAwMCIsImxhc3QiOlsxXX0`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		// Query body path.
		var qr queryRequest
		r := httptest.NewRequest("POST", "/v1/t/fuzz/query", bytes.NewReader(body))
		if err := decodeJSON(httptest.NewRecorder(), r, &qr); err == nil && qr.Cursor != "" {
			checkCursor(t, qr.Cursor)
		}
		// Source body path.
		var sr sourceRequest
		r = httptest.NewRequest("POST", "/v1/t/fuzz/sources", bytes.NewReader(body))
		if err := decodeJSON(httptest.NewRecorder(), r, &sr); err == nil {
			_ = validTenantName(sr.ID)
		}
		// The raw input as a cursor string.
		checkCursor(t, string(body))
	})
}

// checkCursor decodes s and, when it parses, requires a lossless
// re-encode/re-decode round trip.
func checkCursor(t *testing.T, s string) {
	c, err := decodeCursor(s)
	if err != nil {
		return
	}
	if len(c.Last) == 0 || len(c.Last) > maxCursorKey {
		t.Fatalf("decodeCursor accepted out-of-range key arity %d", len(c.Last))
	}
	re := encodeCursor(c.Q, c.Last)
	c2, err := decodeCursor(re)
	if err != nil {
		t.Fatalf("re-encoded cursor does not decode: %v", err)
	}
	if c2.Q != c.Q || !slices.Equal(c2.Last, c.Last) {
		t.Fatalf("cursor round trip changed: %+v != %+v", c2, c)
	}
}
