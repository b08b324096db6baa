package textindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// tokenizeReference is the rune-loop analyzer the byte scanner
// replaced, kept as the specification Tokenize must reproduce exactly.
func tokenizeReference(text string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

// tokenizePieces are the non-ASCII fragments the property test strings
// together with random ASCII bytes: Latin-1, the Greek sigmas, Turkish
// dotted and dotless i, the Kelvin sign (which lower-cases to ASCII
// 'k'), fullwidth digits and letters, combining marks, emoji, U+FFFD
// itself, and raw bytes that are not valid UTF-8 (stray continuation,
// truncated sequences, an encoded surrogate, an overlong form, 0xff).
var tokenizePieces = []string{
	"é", "É", "ß", "ÿ", "Ÿ", "µ", "ª", "º", "¹", "½", "×", "\u00a0",
	"Σ", "σ", "ς", "Ω", "ΐ",
	"İ", "ı", "I", "i",
	"\u212a", "\u212b", // Kelvin sign, Angstrom sign
	"０", "９", "Ａ", "ｚ",
	"\u0301", "\u0308", "\u20dd", // combining marks
	"😀", "🇨🇭", "\u200d",
	"\ufffd",
	"\x80", "\xbf", "\xc3", "\xe2\x82", "\xf0\x9f\x98", "\xed\xa0\x80", "\xc0\xaf", "\xff",
}

func TestTokenizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			if rng.Intn(2) == 0 {
				b.WriteByte(byte(rng.Intn(0x80)))
			} else {
				b.WriteString(tokenizePieces[rng.Intn(len(tokenizePieces))])
			}
		}
		text := b.String()
		if got, want := Tokenize(text), tokenizeReference(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", text, got, want)
		}
	}
}

func FuzzTokenize(f *testing.F) {
	for _, s := range []string{"", "Database tuning", "Ünïcode Wörds", "ΣΑΣ σας", "İstanbul ıı", "\u212aelvin", "０９ＡＢ", "é", "😀x😀", "a\xffb\xc3", "VLDB2006"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := Tokenize(text), tokenizeReference(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", text, got, want)
		}
	})
}

// internTerm interns the only term of text.
func internTerm(t *testing.T, in *interner, text string) int32 {
	t.Helper()
	var s scanner
	s.reset(text)
	if !s.next() {
		t.Fatalf("%q holds no term", text)
	}
	id := in.id(&s)
	if s.next() {
		t.Fatalf("%q holds more than one term", text)
	}
	return id
}

// TestInternerGrows interns 6,000 distinct terms — short and long,
// standing in the text and folded — enough to double the table seven
// times past its initial size; every term must keep its first ID.
func TestInternerGrows(t *testing.T) {
	text := func(i int) string {
		switch i % 4 {
		case 0:
			return fmt.Sprintf("t%d", i)
		case 1:
			return fmt.Sprintf("longerterm%dsuffix", i)
		case 2:
			return fmt.Sprintf("Ünï%dCODE", i)
		default:
			return fmt.Sprintf("X%d", i)
		}
	}
	const n = 6000
	in := newInterner(initialSlots)
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			if got := internTerm(t, &in, text(i)); got != int32(i) {
				t.Fatalf("round %d: %q got ID %d, want %d", round, text(i), got, i)
			}
		}
	}
	if len(in.terms) != n {
		t.Fatalf("%d terms interned, want %d", len(in.terms), n)
	}
	for i, term := range in.terms {
		if want := Tokenize(text(i))[0]; term != want {
			t.Fatalf("term %d is %q, want %q", i, term, want)
		}
	}
	if len(in.slots) < 64*initialSlots {
		t.Fatalf("table has %d slots after %d terms: it did not grow", len(in.slots), n)
	}
}

// TestInternerCollisions forces probe collisions two ways: a one-slot
// initial table, so early inserts find their home slot taken, and long
// terms that agree on length and on their first and last 8 bytes, so
// their keys are equal and only the string comparison tells them apart
// (for terms standing in the text and for folded ones).
func TestInternerCollisions(t *testing.T) {
	colliding := [][]string{
		{"prefix01amiddlebsuffix01", "prefix01bmiddleasuffix01", "prefix01cmiddlecsuffix01"},
		{"Prefix01AmiddleBsuffix01X", "Prefix01BmiddleAsuffix01X"},
	}
	for _, group := range colliding {
		for _, term := range group[1:] {
			a, b := strings.ToLower(group[0]), strings.ToLower(term)
			if keyOf(a) != keyOf(b) {
				t.Fatalf("keyOf(%q) != keyOf(%q): the test no longer forces a collision", a, b)
			}
		}
	}
	texts := []string{"a", "b", "ab", "ba", "abc", "abcdefgh", "abcdefghi", "é", "k",
		"prefix01amiddlebsuffix01", "prefix01bmiddleasuffix01", "prefix01cmiddlecsuffix01",
		"Prefix01AmiddleBsuffix01X", "Prefix01BmiddleAsuffix01X"}
	in := newInterner(1)
	ids := make(map[string]int32)
	for round := 0; round < 2; round++ {
		for _, text := range texts {
			id := internTerm(t, &in, text)
			if prev, ok := ids[text]; ok && prev != id {
				t.Fatalf("%q interned as %d, then %d", text, prev, id)
			}
			ids[text] = id
		}
	}
	seen := make(map[int32]string)
	for text, id := range ids {
		if other, dup := seen[id]; dup {
			t.Fatalf("%q and %q share ID %d", text, other, id)
		}
		seen[id] = text
	}
	// The Kelvin sign folds to ASCII 'k': the same term, the same ID.
	if got, want := internTerm(t, &in, "\u212a"), ids["k"]; got != want {
		t.Fatalf("Kelvin sign interned as %d, want k's %d", got, want)
	}
}
