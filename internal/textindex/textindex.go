// Package textindex implements a positional inverted index over text: the
// stdlib substitute for the Apache Lucene indexes the iMeMex prototype
// used for name and content components (§7.2 of the iDM paper). It
// supports keyword lookup, boolean AND/OR, positional phrase queries,
// and prefix matching, along with the size accounting Table 3 reports.
//
// Like Lucene's, this index is not a replica: it cannot return the
// original text that was indexed, only the ids of matching documents.
package textindex

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
)

// DocID identifies one indexed document (in iMeMex: one resource view,
// identified by its catalog OID).
type DocID uint64

// posting records the positions of one term within one document.
type posting struct {
	doc       DocID
	positions []uint32
}

// Index is a positional inverted index. Index is safe for concurrent
// use.
type Index struct {
	mu sync.RWMutex
	// terms maps a term to its posting list, sorted by DocID.
	terms map[string][]posting
	// docs tracks indexed documents and their token counts.
	docs map[DocID]int
	// deleted holds tombstones filtered out of query results.
	deleted map[DocID]bool
}

// New returns an empty index.
func New() *Index {
	return &Index{
		terms:   make(map[string][]posting),
		docs:    make(map[DocID]int),
		deleted: make(map[DocID]bool),
	}
}

// Add indexes the text of a document. Adding a previously added document
// re-indexes it: its old postings are removed first, whether it is live
// or tombstoned.
func (ix *Index) Add(doc DocID, text string) {
	// Intern the document's terms straight from the scanner: one string
	// per distinct term, not per token.
	var s scanner
	s.reset(text)
	dict := newInterner(initialSlots)
	var positions [][]uint32
	n := 0
	for s.next() {
		id := dict.id(&s)
		if int(id) == len(positions) {
			positions = append(positions, nil)
		}
		positions[id] = append(positions[id], uint32(n))
		n++
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, live := ix.docs[doc]; live || ix.deleted[doc] {
		ix.removeLocked(doc)
	}
	delete(ix.deleted, doc)
	ix.docs[doc] = n
	for t, term := range dict.terms {
		list := ix.terms[term]
		i := sort.Search(len(list), func(i int) bool { return list[i].doc >= doc })
		list = append(list, posting{})
		copy(list[i+1:], list[i:])
		list[i] = posting{doc: doc, positions: positions[t]}
		ix.terms[term] = list
	}
}

// Delete removes a document from the index. Deletion is a tombstone:
// postings are filtered at query time, as in Lucene.
func (ix *Index) Delete(doc DocID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docs[doc]; ok {
		ix.deleted[doc] = true
		delete(ix.docs, doc)
	}
}

// removeLocked physically removes a document's postings (used on
// re-index, where a tombstone would hide the new postings too, and
// where a cleared tombstone would resurrect the old ones).
func (ix *Index) removeLocked(doc DocID) {
	delete(ix.docs, doc)
	for term, list := range ix.terms {
		i := sort.Search(len(list), func(i int) bool { return list[i].doc >= doc })
		if i < len(list) && list[i].doc == doc {
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(ix.terms, term)
			} else {
				ix.terms[term] = list
			}
		}
	}
}

// Compact physically removes tombstoned postings, reclaiming the space
// deletions left behind — the analogue of a Lucene segment merge. It
// returns the number of postings dropped.
func (ix *Index) Compact() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.deleted) == 0 {
		return 0
	}
	dropped := 0
	for term, list := range ix.terms {
		kept := list[:0]
		for _, p := range list {
			if ix.deleted[p.doc] {
				dropped++
				continue
			}
			kept = append(kept, p)
		}
		if len(kept) == 0 {
			delete(ix.terms, term)
		} else {
			ix.terms[term] = kept
		}
	}
	ix.deleted = make(map[DocID]bool)
	return dropped
}

// TombstoneCount returns the number of deleted documents whose postings
// have not been compacted away yet.
func (ix *Index) TombstoneCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.deleted)
}

// DocCount returns the number of live documents.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// TermCount returns the number of distinct terms.
func (ix *Index) TermCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.terms)
}

// PostingLen returns the posting-list length of a term — an O(1) upper
// bound on the documents containing it (tombstoned documents are still
// counted until Compact). Planner statistics surface.
func (ix *Index) PostingLen(term string) int {
	toks := Tokenize(term)
	if len(toks) != 1 {
		return 0
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.terms[toks[0]])
}

// PhraseCardUpper bounds the number of documents containing the phrase:
// a phrase match requires every token, so the shortest posting list of
// its tokens bounds the result. O(tokens) with no list materialization.
func (ix *Index) PhraseCardUpper(phrase string) int {
	toks := Tokenize(phrase)
	if len(toks) == 0 {
		return 0
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	min := -1
	for _, t := range toks {
		n := len(ix.terms[t])
		if min < 0 || n < min {
			min = n
		}
	}
	return min
}

// SizeBytes estimates the on-disk footprint of the index as a
// Lucene-style compressed postings file would store it: term dictionary
// entries, delta+vint encoded document ids with frequencies (~5 bytes
// per posting) and delta+vint encoded positions (~2 bytes each). This
// feeds the Table 3 reproduction, whose prototype used Lucene 1.4.3.
func (ix *Index) SizeBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var n int64
	for term, list := range ix.terms {
		n += int64(len(term)) + 12
		for _, p := range list {
			n += 5 + int64(len(p.positions))*2
		}
	}
	n += int64(len(ix.docs)) * 8
	return n
}

// Lookup returns the ids of live documents containing the term, in
// ascending order. The term is normalized through the tokenizer.
func (ix *Index) Lookup(term string) []DocID {
	toks := Tokenize(term)
	if len(toks) != 1 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.lookupLocked(toks[0])
}

func (ix *Index) lookupLocked(term string) []DocID {
	list := ix.terms[term]
	out := make([]DocID, 0, len(list))
	for _, p := range list {
		if !ix.deleted[p.doc] {
			out = append(out, p.doc)
		}
	}
	return out
}

// And returns documents containing every given term.
func (ix *Index) And(terms ...string) []DocID {
	if len(terms) == 0 {
		return nil
	}
	result := ix.Lookup(terms[0])
	for _, t := range terms[1:] {
		result = intersect(result, ix.Lookup(t))
		if len(result) == 0 {
			return nil
		}
	}
	return result
}

// Or returns documents containing at least one of the given terms.
func (ix *Index) Or(terms ...string) []DocID {
	var result []DocID
	for _, t := range terms {
		result = union(result, ix.Lookup(t))
	}
	return result
}

// Hit is one scored phrase match: the document and the number of
// occurrences of the phrase within it.
type Hit struct {
	Doc  DocID
	Freq int
}

// Phrase returns documents containing the exact token sequence of the
// phrase (consecutive positions). A single-token phrase degenerates to
// Lookup.
func (ix *Index) Phrase(phrase string) []DocID {
	hits := ix.PhraseHits(phrase)
	if len(hits) == 0 {
		return nil
	}
	out := make([]DocID, len(hits))
	for i, h := range hits {
		out[i] = h.Doc
	}
	return out
}

// PhraseHits is Phrase with per-document occurrence counts, in ascending
// document order — the term-frequency signal result ranking uses.
func (ix *Index) PhraseHits(phrase string) []Hit {
	toks := Tokenize(phrase)
	if len(toks) == 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(toks) == 1 {
		list := ix.terms[toks[0]]
		out := make([]Hit, 0, len(list))
		for _, p := range list {
			if !ix.deleted[p.doc] {
				out = append(out, Hit{Doc: p.doc, Freq: len(p.positions)})
			}
		}
		return out
	}
	// Intersect posting lists positionally.
	lists := make([][]posting, len(toks))
	for i, t := range toks {
		lists[i] = ix.terms[t]
		if len(lists[i]) == 0 {
			return nil
		}
	}
	var out []Hit
	for _, p0 := range lists[0] {
		if ix.deleted[p0.doc] {
			continue
		}
		candidate := p0.positions
		for i := 1; i < len(lists); i++ {
			p := findPosting(lists[i], p0.doc)
			if p == nil {
				candidate = nil
				break
			}
			candidate = shiftIntersect(candidate, p.positions, uint32(i))
			if len(candidate) == 0 {
				break
			}
		}
		if len(candidate) > 0 {
			out = append(out, Hit{Doc: p0.doc, Freq: len(candidate)})
		}
	}
	return out
}

// MatchTerms returns all distinct terms with the given prefix, in sorted
// order; the empty prefix returns every term. Planner support for
// wildcard keywords.
func (ix *Index) MatchTerms(prefix string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []string
	for t := range ix.terms {
		if strings.HasPrefix(t, prefix) {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// WriteCanonical writes the index's contents to w in a canonical text
// form: every term in sorted order with its postings, each a document
// and its positions, in stored order; then every live document with its
// token count; then the tombstones. Two indexes holding the same
// postings write the same bytes however they were built, which is what
// the bulk-versus-incremental differential tests compare.
func (ix *Index) WriteCanonical(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	bw := bufio.NewWriter(w)
	terms := make([]string, 0, len(ix.terms))
	for t := range ix.terms {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, t := range terms {
		fmt.Fprintf(bw, "term %q\n", t)
		for _, p := range ix.terms[t] {
			fmt.Fprintf(bw, "\t%d %v\n", p.doc, p.positions)
		}
	}
	for _, d := range sortedDocs(ix.docs) {
		fmt.Fprintf(bw, "doc %d %d\n", d, ix.docs[d])
	}
	for _, d := range sortedDocs(ix.deleted) {
		fmt.Fprintf(bw, "deleted %d\n", d)
	}
	return bw.Flush()
}

func sortedDocs[V any](m map[DocID]V) []DocID {
	out := make([]DocID, 0, len(m))
	for d := range m {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

func findPosting(list []posting, doc DocID) *posting {
	i := sort.Search(len(list), func(i int) bool { return list[i].doc >= doc })
	if i < len(list) && list[i].doc == doc {
		return &list[i]
	}
	return nil
}

// shiftIntersect keeps base positions p such that p+offset appears in
// next.
func shiftIntersect(base, next []uint32, offset uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(base) && j < len(next) {
		want := base[i] + offset
		switch {
		case next[j] < want:
			j++
		case next[j] > want:
			i++
		default:
			out = append(out, base[i])
			i++
			j++
		}
	}
	return out
}

func intersect(a, b []DocID) []DocID {
	var out []DocID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func union(a, b []DocID) []DocID {
	out := make([]DocID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
