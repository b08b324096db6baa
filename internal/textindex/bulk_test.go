package textindex

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestBuilderMatchesIncremental differentially pins the bulk build
// against the incremental path, including the re-add (supersede) case
// the builder handles with its sequence numbers.
func TestBuilderMatchesIncremental(t *testing.T) {
	docs := []struct {
		id   DocID
		text string
	}{
		{1, "intro to personal dataspace management"},
		{2, "the iDM data model unifies files and tuples"},
		{3, "indexing indexing indexing"},
		{4, ""},
		{5, "dataspace queries over a unified model"},
		{2, "revised: the data model after review"}, // re-add supersedes
		{6, "final words on management"},
		{7, "Ünïcode Wörds: ΣΟΦΙΑ σοφίας, İstanbul ıı"},
		{8, "\u212aelvin ０９ café cafe\u0301 😀data😀model"},
		{7, "ΣΟΦΙΑ again, now with Straße"}, // non-ASCII re-add
		{9, "bad\xffbytes \xc3 and ünïcode"},
	}

	inc := New()
	b := NewBuilder()
	for _, d := range docs {
		inc.Add(d.id, d.text)
		b.Add(d.id, d.text)
	}
	built := b.Build()

	if got, want := built.DocCount(), inc.DocCount(); got != want {
		t.Fatalf("DocCount %d, want %d", got, want)
	}
	if got, want := built.TermCount(), inc.TermCount(); got != want {
		t.Fatalf("TermCount %d, want %d", got, want)
	}
	for _, term := range append(inc.MatchTerms(""), "absent") {
		if got, want := built.Lookup(term), inc.Lookup(term); !reflect.DeepEqual(got, want) {
			t.Errorf("Lookup(%q) = %v, want %v", term, got, want)
		}
	}
	for _, phrase := range []string{"data model", "indexing indexing", "personal dataspace", "revised the data",
		"σοφια again", "kelvin ０９", "cafe", "bad bytes", "ÜNÏCODE"} {
		if got, want := built.Phrase(phrase), inc.Phrase(phrase); !reflect.DeepEqual(got, want) {
			t.Errorf("Phrase(%q) = %v, want %v", phrase, got, want)
		}
	}
	if got, want := canonical(t, built), canonical(t, inc); got != want {
		t.Fatalf("bulk and incremental indexes differ:\n%s\nvs\n%s", got, want)
	}
	// The superseded postings must be gone entirely, not tombstoned.
	if got := built.Lookup("unifies"); len(got) != 0 {
		t.Fatalf("superseded posting survived the bulk build: %v", got)
	}
}

// TestBuilderPostingOrder pins that bulk-built posting lists are sorted
// by DocID regardless of insertion order — the invariant the
// incremental path maintains with per-insert binary search.
func TestBuilderPostingOrder(t *testing.T) {
	b := NewBuilder()
	for i := 50; i >= 1; i-- { // descending insertion
		b.Add(DocID(i), fmt.Sprintf("common term doc%d", i))
	}
	ix := b.Build()
	docs := ix.Lookup("common")
	if len(docs) != 50 {
		t.Fatalf("Lookup returned %d docs, want 50", len(docs))
	}
	for i := 1; i < len(docs); i++ {
		if docs[i-1] >= docs[i] {
			t.Fatalf("posting list out of order at %d: %v", i, docs[:i+1])
		}
	}
}

// TestBuilderAddAllocs pins that the bulk builder interns straight from
// the scanner: re-adding a document whose terms are all known allocates
// nothing, however many tokens it has — whether its terms stand in the
// text as they are or are folded (upper-case, non-ASCII, long).
func TestBuilderAddAllocs(t *testing.T) {
	for name, text := range map[string]string{
		"lower":  benchCorpus(1)[0],
		"folded": strings.Repeat("Database TUNING Ünïcode ΣΟΦΙΑ \u212aelvin personaldataspaces ", 20),
	} {
		b := NewBuilder()
		b.Add(1, text)
		// Reserve the spill so amortised slice growth is not counted.
		b.Grow(1<<8, 1<<19)
		if allocs := testing.AllocsPerRun(100, func() { b.Add(1, text) }); allocs != 0 {
			t.Errorf("Builder.Add of an interned %s document: %v allocs, want 0", name, allocs)
		}
	}
}

// canonical returns ix.WriteCanonical's output.
func canonical(t testing.TB, ix *Index) string {
	t.Helper()
	var b strings.Builder
	if err := ix.WriteCanonical(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// FuzzBuilderMatchesIndex differentially pins the bulk build against
// Index.Add, posting for posting: the text is split into documents at
// '|', and ids (when long enough) picks each document's ID from 8, so
// re-adds and out-of-order feeds occur.
func FuzzBuilderMatchesIndex(f *testing.F) {
	f.Add("intro to personal dataspace|the iDM model|indexing indexing", []byte{})
	f.Add("Ünïcode Wörds|ΣΟΦΙΑ σοφίας|\u212aelvin ０９|bad\xffbytes|", []byte{3, 1, 3, 0, 1})
	f.Add("a b a|b a b|prefix01xmiddleysuffix01 prefix01ymiddlexsuffix01", []byte{7, 6, 7})
	f.Fuzz(func(t *testing.T, text string, ids []byte) {
		inc, b := New(), NewBuilder()
		for i, doc := range strings.Split(text, "|") {
			id := DocID(i)
			if i < len(ids) {
				id = DocID(ids[i] % 8)
			}
			inc.Add(id, doc)
			b.Add(id, doc)
		}
		if got, want := canonical(t, b.Build()), canonical(t, inc); got != want {
			t.Fatalf("Builder.Build:\n%s\nIndex.Add:\n%s", got, want)
		}
	})
}
