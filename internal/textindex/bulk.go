package textindex

import (
	"slices"
	"sort"
)

// docSpan is one Add call: the document and its contiguous slice of
// spilled term IDs. A token's position is implicit — its offset within
// the span — so the spill itself is a flat []int32 the garbage
// collector never scans and the build never chases pointers through.
type docSpan struct {
	doc   DocID
	start int
	n     int
	// superseded marks a span a later Add of the same document replaced.
	superseded bool
}

// Builder constructs an Index with a counting bulk build: Add scans,
// keys and interns each token in one pass and spills its term ID (4
// bytes, positions implicit in span offsets) without touching any
// posting list, then Build materializes every posting list with a
// counting pass — a bucket sort on term IDs into two exactly-sized
// arenas (one []uint32 for all positions, one []posting for all
// lists). Feeding documents in ascending DocID order (the order
// RestoreFromState scans) keeps each bucket naturally sorted;
// out-of-order feeds fall back to a per-list sort. Compared with the incremental path this saves the
// per-document term table, the per-term binary search and map rehash on
// every insert, and the repeated posting-slice regrowth; the build
// itself is sequential scans plus small dense per-term arrays.
//
// The built index is semantically identical to incrementally Add-ing
// the same documents in the same order (the bulk-vs-incremental
// differential test and FuzzBuilderMatchesIndex pin this). A Builder is
// single-use and not safe for concurrent use; the Index it returns is.
type Builder struct {
	dict  interner
	terms []int32 // one interned term ID per spilled token
	spans []docSpan
	docs  map[DocID]int32 // span index of the doc's latest Add
	scan  scanner
}

// NewBuilder returns an empty bulk builder.
func NewBuilder() *Builder {
	return &Builder{
		dict: newInterner(initialSlots),
		docs: make(map[DocID]int32),
	}
}

// bytesPerToken is what Grow expects one token to take in text, its
// separator included: an estimate, rounded down, so that the spill
// rarely needs to grow after Grow.
const bytesPerToken = 6

// Grow reserves room for about docs more documents holding textBytes
// more bytes of text, so a caller that knows its input's size up front
// (a restore does) does not regrow the spill while it adds.
func (b *Builder) Grow(docs, textBytes int) {
	b.terms = slices.Grow(b.terms, textBytes/bytesPerToken)
	b.spans = slices.Grow(b.spans, docs)
	if len(b.docs) == 0 {
		b.docs = make(map[DocID]int32, docs)
	}
}

// Add spills one document's tokens. Re-adding a document supersedes
// its earlier tokens, matching Index.Add. Terms are interned straight
// from the scanner, so a document whose terms are all known allocates
// nothing per token.
func (b *Builder) Add(doc DocID, text string) {
	start := len(b.terms)
	b.scan.reset(text)
	for b.scan.next() {
		b.terms = append(b.terms, b.dict.id(&b.scan))
	}
	if prev, ok := b.docs[doc]; ok {
		b.spans[prev].superseded = true
	}
	b.docs[doc] = int32(len(b.spans))
	b.spans = append(b.spans, docSpan{doc: doc, start: start, n: len(b.terms) - start})
}

// DocCount returns the number of distinct documents added so far.
func (b *Builder) DocCount() int { return len(b.docs) }

// Build assembles the index. One counting pass over the live spans
// sizes every bucket (token occurrences and (term, doc) runs per
// term), then a scatter pass writes positions into a shared arena and
// closes each run into its posting slot. A document's live tokens are
// one contiguous span, so within a term's bucket each document is
// exactly one posting. Only buckets a re-added document left out of
// doc order are sorted afterwards. The builder must not be used after
// Build.
func (b *Builder) Build() *Index {
	nt := len(b.dict.terms)
	tokCount := make([]int32, nt) // live token occurrences per term
	runCount := make([]int32, nt) // live (term, doc) pairs per term
	lastDoc := make([]DocID, nt)
	seen := make([]bool, nt)
	live := 0
	for si := range b.spans {
		sp := &b.spans[si]
		if sp.superseded {
			continue
		}
		live += sp.n
		for _, t := range b.terms[sp.start : sp.start+sp.n] {
			tokCount[t]++
			if !seen[t] || lastDoc[t] != sp.doc {
				runCount[t]++
				seen[t] = true
				lastDoc[t] = sp.doc
			}
		}
	}
	posArena := make([]uint32, live)
	posOff := make([]int32, nt)
	postOff := make([]int32, nt)
	var po, ro int32
	for t := 0; t < nt; t++ {
		posOff[t] = po
		po += tokCount[t]
		postOff[t] = ro
		ro += runCount[t]
	}
	postArena := make([]posting, ro)
	posNext := append([]int32(nil), posOff...)
	postNext := append([]int32(nil), postOff...)
	runStart := make([]int32, nt)
	unsorted := make([]bool, nt)
	clear(seen) // reuse as "term has an open run"; lastDoc as the open run's doc
	closeRun := func(t int32) {
		postArena[postNext[t]] = posting{
			doc:       lastDoc[t],
			positions: posArena[runStart[t]:posNext[t]:posNext[t]],
		}
		postNext[t]++
	}
	for si := range b.spans {
		sp := &b.spans[si]
		if sp.superseded {
			continue
		}
		for i, t := range b.terms[sp.start : sp.start+sp.n] {
			if !seen[t] || lastDoc[t] != sp.doc {
				if seen[t] {
					closeRun(t)
					if sp.doc < lastDoc[t] {
						unsorted[t] = true
					}
				}
				seen[t] = true
				lastDoc[t] = sp.doc
				runStart[t] = posNext[t]
			}
			posArena[posNext[t]] = uint32(i)
			posNext[t]++
		}
	}
	for t := int32(0); t < int32(nt); t++ {
		if seen[t] {
			closeRun(t)
		}
	}
	ix := &Index{
		terms:   make(map[string][]posting, nt),
		docs:    make(map[DocID]int, len(b.docs)),
		deleted: make(map[DocID]bool),
	}
	for doc, si := range b.docs {
		ix.docs[doc] = b.spans[si].n
	}
	for id, term := range b.dict.terms {
		list := postArena[postOff[id]:postNext[id]:postNext[id]]
		if len(list) == 0 {
			continue
		}
		if unsorted[id] {
			sort.Slice(list, func(i, j int) bool { return list[i].doc < list[j].doc })
		}
		ix.terms[term] = list
	}
	*b = Builder{}
	return ix
}
