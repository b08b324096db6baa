package textindex

import (
	"fmt"
	"reflect"
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

// TestBuilderAddAllocs pins that the bulk builder interns from the
// scanner's buffer: re-adding a document whose terms are all known
// allocates nothing, however many tokens it has.
func TestBuilderAddAllocs(t *testing.T) {
	text := benchCorpus(1)[0]
	b := NewBuilder()
	b.Add(1, text)
	// Pre-size the spill so amortised slice growth is not counted.
	b.terms = make([]int32, 0, 1<<16)
	b.spans = make([]docSpan, 0, 1<<8)
	if allocs := testing.AllocsPerRun(100, func() { b.Add(1, text) }); allocs != 0 {
		t.Fatalf("Builder.Add of an interned document: %v allocs, want 0", allocs)
	}
}
