package textindex

import (
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
