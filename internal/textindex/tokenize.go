package textindex

import (
	"unicode"
	"unicode/utf8"
)

// scanner is the index's one analyzer: it splits text into lower-case
// terms, the maximal runs of letters and digits, the simple analyzer
// behaviour the evaluation queries assume. It works on bytes: an ASCII
// byte is classified and lower-cased by range checks, and only a
// non-ASCII rune pays for unicode.IsLetter/IsDigit/ToLower. Invalid
// UTF-8 separates terms, as it does for a range loop over the string
// (which yields U+FFFD, neither letter nor digit).
//
// Each term is written into buf, which the next call reuses, so a
// caller that keeps a term copies it — string(tok) as a map key in a
// lookup does not allocate, which lets the index builders intern
// terms with one string per distinct term rather than per token.
type scanner struct {
	text string
	i    int
	buf  []byte
}

func (s *scanner) reset(text string) {
	s.text, s.i = text, 0
}

// next returns the next term, or an empty slice once the text is
// exhausted (a term is never empty). The term is valid until the next
// call.
func (s *scanner) next() []byte {
	s.buf = s.buf[:0]
	for s.i < len(s.text) {
		c := s.text[s.i]
		if c < utf8.RuneSelf {
			s.i++
			switch {
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
				s.buf = append(s.buf, c)
			case 'A' <= c && c <= 'Z':
				s.buf = append(s.buf, c+('a'-'A'))
			case len(s.buf) > 0:
				return s.buf
			}
			continue
		}
		r, w := utf8.DecodeRuneInString(s.text[s.i:])
		s.i += w
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			s.buf = utf8.AppendRune(s.buf, unicode.ToLower(r))
		} else if len(s.buf) > 0 {
			return s.buf
		}
	}
	return s.buf
}

// Tokenize splits text into lower-case terms: maximal runs of letters and
// digits. This matches the simple analyzer behaviour the evaluation
// queries assume.
func Tokenize(text string) []string {
	var out []string
	var s scanner
	s.reset(text)
	for tok := s.next(); len(tok) > 0; tok = s.next() {
		out = append(out, string(tok))
	}
	return out
}
