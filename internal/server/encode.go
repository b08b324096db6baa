// The /query response encoder.
//
// A query response has one fixed shape, so it is written by appending
// bytes rather than by reflection, and a row is encoded once per cached
// result: appendRow is the pure row encoder the facade memoizes
// (idm.Page.AppendRows), and a cache hit copies the memoized bytes. The
// output is byte-for-byte what encoding/json's Encoder writes for
//
//	{columns []string; rows [][]{oid, name, class, source, path, uri};
//	 total int; next_cursor string,omitempty; stale bool,omitempty}
//
// HTML escaping and the trailing newline included; FuzzQueryEncoding
// pins that against encoding/json.
package server

import (
	"strconv"
	"sync"
	"unicode/utf8"

	idm "repro"
)

// bodyPool recycles response buffers; one grown past maxPooledBody is
// left to the collector rather than pinned.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// appendQueryResponse appends the response body for page p, whose
// continuation cursor is next ("" when the page ends the result).
func appendQueryResponse(dst []byte, p *idm.Page, next string) []byte {
	dst = append(dst, `{"columns":`...)
	if p.Columns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range p.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, c)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"rows":[`...)
	dst = p.AppendRows(dst, appendRow)
	if len(p.Rows) > 0 {
		dst = dst[:len(dst)-1] // the last row's separator
	}
	dst = append(dst, `],"total":`...)
	dst = strconv.AppendInt(dst, int64(p.Total), 10)
	if next != "" {
		dst = append(dst, `,"next_cursor":`...)
		dst = appendString(dst, next)
	}
	if p.Stale {
		dst = append(dst, `,"stale":true`...)
	}
	return append(dst, "}\n"...)
}

// appendRow appends one row followed by the comma that separates it
// from the next.
func appendRow(dst []byte, row idm.Row) []byte {
	dst = append(dst, '[')
	for i, it := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"oid":`...)
		dst = strconv.AppendUint(dst, uint64(it.OID), 10)
		dst = append(dst, `,"name":`...)
		dst = appendString(dst, it.Name)
		dst = append(dst, `,"class":`...)
		dst = appendString(dst, it.Class)
		dst = append(dst, `,"source":`...)
		dst = appendString(dst, it.Source)
		dst = append(dst, `,"path":`...)
		dst = appendString(dst, it.Path)
		dst = append(dst, `,"uri":`...)
		dst = appendString(dst, it.URI)
		dst = append(dst, '}')
	}
	return append(dst, "],"...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on: control bytes, '"', '\\', '<', '>' and '&'
// escaped, each invalid UTF-8 byte replaced by \ufffd, and U+2028 and
// U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
