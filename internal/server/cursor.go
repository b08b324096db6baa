// Cursors for imemexd query results.
//
// A cursor is an opaque, resumable position in a query's result set:
// the key of the last row the previous page returned. What a key is and
// how rows are ordered by it is the facade's decision alone
// (idm.System.QueryPage); this file only carries the key across the
// network and back. Because a row's key never changes — OIDs are
// assigned once and never reused for a live view — a cursor stays valid
// across dataspace mutation, tenant eviction and daemon restart: a
// client walking pages sees every row at most once and in strictly
// increasing key order, even while rows are added or removed underneath
// it. Resuming costs a lookup, not a query: while the dataspace version
// stands the facade answers every page of a walk from one cached
// result, ordered once, resolving only the rows the page returns.
package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"

	idm "repro"
)

// pageCursor is the decoded cursor. The wire form is unpadded
// URL-base64 over compact JSON — opaque to clients, versioned and
// query-bound so a cursor can only resume the query that minted it.
type pageCursor struct {
	// V is the cursor format version (currently 1).
	V int `json:"v"`
	// Q is the FNV-64a hash of the query text the cursor belongs to.
	Q string `json:"q"`
	// Last is the key of the last row the previous page returned.
	Last []idm.OID `json:"last"`
}

// cursorVersion is the only format this build mints and accepts.
const cursorVersion = 1

// maxCursorKey bounds the row-key arity a cursor may carry (rows are
// one item, or two for joins; a little headroom costs nothing).
const maxCursorKey = 8

// queryHash binds a cursor to its query text.
func queryHash(q string) string {
	h := fnv.New64a()
	h.Write([]byte(q))
	return fmt.Sprintf("%016x", h.Sum64())
}

// encodeCursor mints the opaque wire form over the bytes json.Marshal
// writes for pageCursor, appended by hand like a /query body. last is a
// row key, never empty.
func encodeCursor(qhash string, last []idm.OID) string {
	b := append(make([]byte, 0, 64), `{"v":`...)
	b = strconv.AppendInt(b, cursorVersion, 10)
	b = append(b, `,"q":`...)
	b = appendString(b, qhash)
	b = append(b, `,"last":[`...)
	for i, oid := range last {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(oid), 10)
	}
	return base64.RawURLEncoding.EncodeToString(append(b, "]}"...))
}

// decodeCursor parses and validates an opaque cursor. Every failure is
// a client error: cursors are never trusted (they cross the network),
// so decoding is strict — exact version, known fields only, bounded
// key arity — and can reject but never panic (FuzzServerRequest pins
// that).
func decodeCursor(s string) (pageCursor, error) {
	var c pageCursor
	if len(s) > 1024 {
		return c, fmt.Errorf("cursor too long (%d bytes)", len(s))
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return c, fmt.Errorf("cursor is not valid base64: %v", err)
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("cursor does not decode: %v", err)
	}
	if c.V != cursorVersion {
		return c, fmt.Errorf("cursor version %d not supported", c.V)
	}
	if len(c.Last) == 0 || len(c.Last) > maxCursorKey {
		return c, fmt.Errorf("cursor key arity %d out of range", len(c.Last))
	}
	return c, nil
}
