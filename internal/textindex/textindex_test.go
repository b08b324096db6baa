package textindex

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func seedIndex() *Index {
	ix := New()
	ix.Add(1, "Database tuning is an art")
	ix.Add(2, "database systems and database tuning")
	ix.Add(3, "The art of computer programming, by Donald Knuth")
	ix.Add(4, "tuning forks are not database related")
	return ix
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Database tuning", []string{"database", "tuning"}},
		{"Mike Franklin's", []string{"mike", "franklin", "s"}},
		{"  ", nil},
		{"a-b_c", []string{"a", "b", "c"}},
		{"VLDB2006", []string{"vldb2006"}},
		{"Ünïcode Wörds", []string{"ünïcode", "wörds"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLookup(t *testing.T) {
	ix := seedIndex()
	got := ix.Lookup("database")
	want := []DocID{1, 2, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Lookup(database) = %v, want %v", got, want)
	}
	if got := ix.Lookup("DATABASE"); !reflect.DeepEqual(got, want) {
		t.Errorf("lookup must normalize case: %v", got)
	}
	if got := ix.Lookup("missing"); len(got) != 0 {
		t.Errorf("Lookup(missing) = %v", got)
	}
	if got := ix.Lookup("two words"); got != nil {
		t.Errorf("multi-token lookup = %v, want nil", got)
	}
}

func TestAndOr(t *testing.T) {
	ix := seedIndex()
	if got := ix.And("database", "tuning"); !reflect.DeepEqual(got, []DocID{1, 2, 4}) {
		t.Errorf("And = %v", got)
	}
	if got := ix.And("database", "knuth"); len(got) != 0 {
		t.Errorf("And disjoint = %v", got)
	}
	if got := ix.Or("knuth", "forks"); !reflect.DeepEqual(got, []DocID{3, 4}) {
		t.Errorf("Or = %v", got)
	}
	if got := ix.And(); got != nil {
		t.Errorf("And() = %v", got)
	}
}

func TestPhrase(t *testing.T) {
	ix := seedIndex()
	// "database tuning" is consecutive in docs 1 and 2, but doc 4 has
	// the words non-adjacent.
	got := ix.Phrase("database tuning")
	if !reflect.DeepEqual(got, []DocID{1, 2}) {
		t.Errorf("Phrase = %v, want [1 2]", got)
	}
	if got := ix.Phrase("Donald Knuth"); !reflect.DeepEqual(got, []DocID{3}) {
		t.Errorf("Phrase(Donald Knuth) = %v", got)
	}
	if got := ix.Phrase("tuning database"); len(got) != 0 {
		t.Errorf("reversed phrase = %v", got)
	}
	if got := ix.Phrase(""); got != nil {
		t.Errorf("empty phrase = %v", got)
	}
	if got := ix.Phrase("database"); !reflect.DeepEqual(got, []DocID{1, 2, 4}) {
		t.Errorf("single-token phrase = %v", got)
	}
}

func TestPhraseRepeatedToken(t *testing.T) {
	ix := New()
	ix.Add(7, "data data data model")
	if got := ix.Phrase("data data model"); !reflect.DeepEqual(got, []DocID{7}) {
		t.Errorf("repeated-token phrase = %v", got)
	}
	if got := ix.Phrase("data model data"); len(got) != 0 {
		t.Errorf("wrong order = %v", got)
	}
}

func TestPhraseHitsFrequencies(t *testing.T) {
	ix := New()
	ix.Add(1, "data model data model data")
	ix.Add(2, "data model")
	hits := ix.PhraseHits("data model")
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Doc != 1 || hits[0].Freq != 2 {
		t.Errorf("doc 1 hit = %+v, want freq 2", hits[0])
	}
	if hits[1].Doc != 2 || hits[1].Freq != 1 {
		t.Errorf("doc 2 hit = %+v", hits[1])
	}
	// Single-token frequencies count every occurrence.
	single := ix.PhraseHits("data")
	if single[0].Freq != 3 {
		t.Errorf("single-token freq = %d, want 3", single[0].Freq)
	}
	if got := ix.PhraseHits("missing phrase"); got != nil {
		t.Errorf("missing = %v", got)
	}
}

func TestDelete(t *testing.T) {
	ix := seedIndex()
	ix.Delete(2)
	if got := ix.Lookup("database"); !reflect.DeepEqual(got, []DocID{1, 4}) {
		t.Errorf("after delete: %v", got)
	}
	if got := ix.Phrase("database tuning"); !reflect.DeepEqual(got, []DocID{1}) {
		t.Errorf("phrase after delete: %v", got)
	}
	if ix.DocCount() != 3 {
		t.Errorf("doc count = %d", ix.DocCount())
	}
	ix.Delete(99) // unknown: no-op
}

func TestCompact(t *testing.T) {
	ix := seedIndex()
	sizeBefore := ix.SizeBytes()
	ix.Delete(1)
	ix.Delete(3)
	if ix.TombstoneCount() != 2 {
		t.Fatalf("tombstones = %d", ix.TombstoneCount())
	}
	dropped := ix.Compact()
	if dropped == 0 {
		t.Error("nothing compacted")
	}
	if ix.TombstoneCount() != 0 {
		t.Error("tombstones survive compaction")
	}
	if ix.SizeBytes() >= sizeBefore {
		t.Errorf("size did not shrink: %d → %d", sizeBefore, ix.SizeBytes())
	}
	// Queries agree before and after compaction.
	if got := ix.Lookup("database"); !reflect.DeepEqual(got, []DocID{2, 4}) {
		t.Errorf("after compact: %v", got)
	}
	if got := ix.Phrase("database tuning"); !reflect.DeepEqual(got, []DocID{2}) {
		t.Errorf("phrase after compact: %v", got)
	}
	// Idempotent.
	if ix.Compact() != 0 {
		t.Error("second compact dropped postings")
	}
	// Deleted docs can be re-added after compaction.
	ix.Add(1, "revived database")
	if got := ix.Lookup("revived"); !reflect.DeepEqual(got, []DocID{1}) {
		t.Errorf("revive after compact: %v", got)
	}
}

func TestReAdd(t *testing.T) {
	ix := seedIndex()
	ix.Add(1, "completely different words now")
	if got := ix.Lookup("database"); !reflect.DeepEqual(got, []DocID{2, 4}) {
		t.Errorf("old postings survive re-add: %v", got)
	}
	if got := ix.Lookup("completely"); !reflect.DeepEqual(got, []DocID{1}) {
		t.Errorf("new postings missing: %v", got)
	}
	// Delete then re-add revives the document.
	ix.Delete(1)
	ix.Add(1, "revived text")
	if got := ix.Lookup("revived"); !reflect.DeepEqual(got, []DocID{1}) {
		t.Errorf("revived doc not found: %v", got)
	}
}

// TestReAddAfterDelete pins that re-adding a tombstoned document drops
// its old postings: clearing the tombstone must not resurrect them.
func TestReAddAfterDelete(t *testing.T) {
	ix := New()
	ix.Add(1, "alpha beta")
	ix.Delete(1)
	ix.Add(1, "gamma")
	for _, term := range []string{"alpha", "beta"} {
		if got := ix.Lookup(term); len(got) != 0 {
			t.Errorf("Lookup(%q) = %v after re-add, want none", term, got)
		}
		if n := ix.PostingLen(term); n != 0 {
			t.Errorf("PostingLen(%q) = %d after re-add, want 0", term, n)
		}
	}
	if got := ix.Phrase("alpha beta"); len(got) != 0 {
		t.Errorf("Phrase(alpha beta) = %v after re-add, want none", got)
	}
	if got := ix.Lookup("gamma"); !reflect.DeepEqual(got, []DocID{1}) {
		t.Errorf("Lookup(gamma) = %v, want [1]", got)
	}
	if n := ix.PostingLen("gamma"); n != 1 {
		t.Errorf("PostingLen(gamma) = %d, want 1", n)
	}
	if ix.DocCount() != 1 || ix.TombstoneCount() != 0 {
		t.Errorf("DocCount %d, TombstoneCount %d; want 1, 0", ix.DocCount(), ix.TombstoneCount())
	}
}

func TestMatchTerms(t *testing.T) {
	ix := seedIndex()
	got := ix.MatchTerms("tun")
	if !reflect.DeepEqual(got, []string{"tuning"}) {
		t.Errorf("MatchTerms(tun) = %v", got)
	}
	all := ix.MatchTerms("")
	if len(all) != ix.TermCount() {
		t.Errorf("MatchTerms(\"\") returned %d of %d terms", len(all), ix.TermCount())
	}
	if !sort.StringsAreSorted(all) {
		t.Error("terms not sorted")
	}
}

func TestSizeBytesGrows(t *testing.T) {
	ix := New()
	empty := ix.SizeBytes()
	ix.Add(1, "some words to index")
	if ix.SizeBytes() <= empty {
		t.Error("size did not grow after Add")
	}
}

func TestCounts(t *testing.T) {
	ix := seedIndex()
	if ix.DocCount() != 4 {
		t.Errorf("docs = %d", ix.DocCount())
	}
	if ix.TermCount() == 0 {
		t.Error("no terms")
	}
}

// Property: every document added with a sentinel token is found by that
// token, results are sorted and duplicate-free, and And is a subset of
// each term's postings.
func TestIndexPropertyQuick(t *testing.T) {
	f := func(texts []string) bool {
		ix := New()
		for i, txt := range texts {
			ix.Add(DocID(i+1), txt+" sentinelterm")
		}
		got := ix.Lookup("sentinelterm")
		if len(got) != len(texts) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				return false
			}
		}
		and := ix.And("sentinelterm", "sentinelterm")
		if len(and) != len(got) {
			return false
		}
		for i := range and {
			if and[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: union and intersection of sorted DocID lists keep sortedness
// and satisfy |A∩B| + |A∪B| = |A| + |B|.
func TestSetOpsPropertyQuick(t *testing.T) {
	f := func(a8, b8 []uint8) bool {
		a := dedupSorted(a8)
		b := dedupSorted(b8)
		in := intersect(a, b)
		un := union(a, b)
		if len(in)+len(un) != len(a)+len(b) {
			return false
		}
		for i := 1; i < len(un); i++ {
			if un[i] <= un[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func dedupSorted(xs []uint8) []DocID {
	seen := make(map[DocID]bool)
	var out []DocID
	for _, x := range xs {
		d := DocID(x)
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
