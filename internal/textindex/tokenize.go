package textindex

import (
	"math/bits"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Byte classes of the scanner's table.
const (
	sepByte   = iota // an ASCII byte that ends a term
	termByte         // a-z or 0-9: part of a term as it stands
	upperByte        // A-Z: part of a term once folded
	multiByte        // >= 0x80: part of a multi-byte rune, or invalid UTF-8
)

var byteClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = multiByte
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = termByte
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = termByte
	}
	for c := 'A'; c <= 'Z'; c++ {
		t[c] = upperByte
	}
	return t
}()

// key is what the interner files a term under: the term's first and
// last 8 bytes, packed little-endian (a shorter term packed whole into
// lo). With the term's length it spells out every term of at most 16
// bytes — nearly every word — so only a longer term whose key and
// length match needs a string comparison. It costs O(1) per term, with
// no per-byte hash chain in the scan loop.
type key struct{ lo, hi uint64 }

func keyOf[T string | []byte](t T) key {
	n := len(t)
	switch {
	case n >= 8:
		return key{lo: le64(t[:8]), hi: le64(t[n-8:])}
	case n >= 4:
		return key{lo: le32(t[:4]) | le32(t[n-4:])<<(8*(n-4))}
	default:
		return key{lo: uint64(t[0]) | uint64(t[n>>1])<<(8*(n>>1)) | uint64(t[n-1])<<(8*(n-1))}
	}
}

// termEnd returns the end of the run of a-z and 0-9 bytes that starts
// at text[i]. It tests 8 bytes at a time while 8 remain, which spares
// the scan most of the branch it would otherwise mispredict at the end
// of each term; the tail goes through the byte table.
func termEnd(text string, i int) int {
	for ; i+8 <= len(text); i += 8 {
		if m := nonTermBytes(le64(text[i : i+8])); m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for i < len(text) && byteClass[text[i]] == termByte {
		i++
	}
	return i
}

// nonTermBytes sets the high bit of each byte of x that is not a-z or
// 0-9 (a SWAR range test: adding 0x80-lo to a 7-bit byte sets its high
// bit exactly when the byte is >= lo, and no lane carries into the
// next).
func nonTermBytes(x uint64) uint64 {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	x7 := x &^ msb
	lower := (x7 + (0x80-'a')*lsb) &^ (x7 + (0x80-'z'-1)*lsb)
	digit := (x7 + (0x80-'0')*lsb) &^ (x7 + (0x80-'9'-1)*lsb)
	return (^(lower | digit) | x) & msb
}

func le64[T string | []byte](b T) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le32[T string | []byte](b T) uint64 {
	_ = b[3]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
}

// scanner is the index's one analyzer: it splits text into lower-case
// terms, the maximal runs of letters and digits, the simple analyzer
// behaviour the evaluation queries assume. It classifies bytes through
// a 256-entry table (8 at a time inside a lower-case run, see termEnd)
// and keys each term in the same pass. A term that
// is already lower-case ASCII — almost every term of real text — is
// not copied: it is a substring of the text. Only a term holding an
// upper-case or non-ASCII byte is folded into buf, where a non-ASCII
// rune pays for unicode.IsLetter/IsDigit/ToLower. Invalid UTF-8
// separates terms, as it does for a range loop over the string (which
// yields U+FFFD, neither letter nor digit).
type scanner struct {
	text string
	i    int
	// The current term is text[start:end] when it stands in the text as
	// is, and buf (valid until the next call) when it is folded. Offsets
	// rather than a substring keep pointer writes, and with them GC
	// write barriers, out of the scan loop.
	start, end int
	folded     bool
	buf        []byte
	key        key // of the current term
}

func (s *scanner) reset(text string) {
	s.text, s.i = text, 0
}

// next advances to the next term and reports whether there is one (a
// term is never empty).
func (s *scanner) next() bool {
	text, i := s.text, s.i
	for {
		for i < len(text) && byteClass[text[i]] == sepByte {
			i++
		}
		if i == len(text) {
			s.i = i
			return false
		}
		start := i
		i = termEnd(text, i)
		if i == len(text) || byteClass[text[i]] == sepByte {
			s.start, s.end, s.folded, s.key, s.i = start, i, false, keyOf(text[start:i]), i
			return true
		}
		// The term (possibly still empty) goes on with an upper-case or
		// non-ASCII byte: fold it into buf from here to its end.
		mid := i
		s.buf = append(s.buf[:0], text[start:i]...)
	fold:
		for i < len(text) {
			c := text[i]
			switch byteClass[c] {
			case sepByte:
				break fold
			case upperByte:
				c += 'a' - 'A'
				fallthrough
			case termByte:
				s.buf = append(s.buf, c)
				i++
			default:
				r, w := utf8.DecodeRuneInString(text[i:])
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					break fold
				}
				i += w
				s.buf = utf8.AppendRune(s.buf, unicode.ToLower(r))
			}
		}
		switch {
		case i == mid && i > start:
			// Ended by a non-ASCII separator: nothing was folded.
			s.start, s.end, s.folded, s.key, s.i = start, i, false, keyOf(text[start:i]), i
			return true
		case len(s.buf) > 0:
			s.folded, s.key, s.i = true, keyOf(s.buf), i
			return true
		}
		// No term yet: text[i] starts a rune that is neither a letter nor
		// a digit (or is not valid UTF-8). Skip it and scan on.
		_, w := utf8.DecodeRuneInString(text[i:])
		i += w
	}
}

// termLen returns the current term's length in bytes.
func (s *scanner) termLen() int {
	if s.folded {
		return len(s.buf)
	}
	return s.end - s.start
}

// is reports whether the current term equals t.
func (s *scanner) is(t string) bool {
	if s.folded {
		return string(s.buf) == t
	}
	return s.text[s.start:s.end] == t
}

// clone returns the current term as a string that shares no memory with
// the text or the buffer.
func (s *scanner) clone() string {
	if s.folded {
		return string(s.buf)
	}
	return strings.Clone(s.text[s.start:s.end])
}

// interner assigns dense IDs to distinct terms, in order of first
// sight. Its table is open-addressed over the term list: each slot
// holds a term's key, length and ID, probed linearly from the mixed
// key's top bits, and a lookup compares strings only for a term longer
// than 16 bytes whose key and length match. The table doubles before it
// is half full. A term is cloned when it is first interned, never on a
// lookup, so an index never pins a document's text.
type interner struct {
	terms []string
	slots []slot // len is a power of two
	shift uint8  // 64 - log2(len(slots))
}

// slot is one table entry; id is the term ID + 1, so 0 marks it empty.
type slot struct {
	k  key
	n  int32
	id int32
}

// initialSlots sizes a fresh table; a document's terms, or the few
// hundred distinct terms of a tenant's content, fit without growing.
const initialSlots = 64

func newInterner(slots int) interner {
	var in interner
	in.resize(slots)
	return in
}

// home is the slot a probe for k starts at.
func (in *interner) home(k key) uint64 {
	return ((k.lo ^ k.hi*0xc2b2ae3d27d4eb4f) * 0x9e3779b97f4a7c15) >> in.shift
}

// id returns the ID of the scanner's current term, interning it first
// if it is new.
func (in *interner) id(s *scanner) int32 {
	mask := uint64(len(in.slots) - 1)
	n := int32(s.termLen())
	for i := in.home(s.key); ; i = (i + 1) & mask {
		sl := &in.slots[i]
		if sl.id == 0 {
			id := int32(len(in.terms))
			in.terms = append(in.terms, s.clone())
			*sl = slot{k: s.key, n: n, id: id + 1}
			if 2*len(in.terms) > len(in.slots) {
				in.resize(2 * len(in.slots))
			}
			return id
		}
		if sl.k == s.key && sl.n == n && (n <= 16 || s.is(in.terms[sl.id-1])) {
			return sl.id - 1
		}
	}
}

// resize rebuilds the table with n slots (a power of two).
func (in *interner) resize(n int) {
	old := in.slots
	in.slots = make([]slot, n)
	in.shift = 64
	for 1<<(64-in.shift) < n {
		in.shift--
	}
	mask := uint64(n - 1)
	for _, sl := range old {
		if sl.id == 0 {
			continue
		}
		i := in.home(sl.k)
		for in.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = sl
	}
}

// Tokenize splits text into lower-case terms: maximal runs of letters and
// digits. This matches the simple analyzer behaviour the evaluation
// queries assume. Each term is a fresh string.
func Tokenize(text string) []string {
	var out []string
	var s scanner
	s.reset(text)
	for s.next() {
		out = append(out, s.clone())
	}
	return out
}
