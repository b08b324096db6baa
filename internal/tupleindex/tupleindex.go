// Package tupleindex implements the tuple-component index & replica of
// §7.2 of the iDM paper: an in-memory replica of all resource views'
// tuple components plus an auxiliary sorted index based on vertical
// partitioning (the decomposition storage model of Copeland and
// Khoshafian, which the paper cites). Each attribute gets its own sorted
// column of (value, doc) pairs, so attribute predicates such as
// [size > 42000 and lastmodified < yesterday()] evaluate with binary
// search per attribute.
package tupleindex

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// DocID identifies one indexed resource view (its catalog OID).
type DocID uint64

// Op is a comparison operator for range queries.
type Op int

// Comparison operators.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
)

func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// entry is one (value, doc) pair of a column.
type entry struct {
	value core.Value
	doc   DocID
}

// column is the vertical partition for one attribute.
type column struct {
	entries []entry
	sorted  bool
}

// Index is the tuple index & replica. Index is safe for concurrent use.
type Index struct {
	mu      sync.RWMutex
	columns map[string]*column
	replica map[DocID]core.TupleComponent
}

// New returns an empty tuple index.
func New() *Index {
	return &Index{
		columns: make(map[string]*column),
		replica: make(map[DocID]core.TupleComponent),
	}
}

// Add indexes and replicates the tuple component of a document. Adding a
// document twice replaces its previous tuple. Attribute names are
// normalized to lower case.
func (ix *Index) Add(doc DocID, tc core.TupleComponent) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.addLocked(doc, tc)
}

// addLocked is Add without the lock; Builder.Add shares it. Appending
// leaves the touched columns unsorted until the next query or Build.
func (ix *Index) addLocked(doc DocID, tc core.TupleComponent) {
	if _, exists := ix.replica[doc]; exists {
		ix.removeLocked(doc)
	}
	ix.replica[doc] = tc
	for i, attr := range tc.Schema {
		if i >= len(tc.Tuple) {
			break
		}
		name := strings.ToLower(attr.Name)
		col, ok := ix.columns[name]
		if !ok {
			col = &column{}
			ix.columns[name] = col
		}
		col.entries = append(col.entries, entry{value: tc.Tuple[i], doc: doc})
		col.sorted = false
	}
}

// Delete removes a document from the replica and all columns.
func (ix *Index) Delete(doc DocID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(doc)
}

func (ix *Index) removeLocked(doc DocID) {
	delete(ix.replica, doc)
	for name, col := range ix.columns {
		kept := col.entries[:0]
		for _, e := range col.entries {
			if e.doc != doc {
				kept = append(kept, e)
			}
		}
		col.entries = kept
		if len(col.entries) == 0 {
			delete(ix.columns, name)
		}
	}
}

// Tuple returns the replicated tuple component of a document.
func (ix *Index) Tuple(doc DocID) (core.TupleComponent, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	tc, ok := ix.replica[doc]
	return tc, ok
}

// DocCount returns the number of replicated documents.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.replica)
}

// Attributes returns the indexed attribute names in sorted order.
func (ix *Index) Attributes() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.columns))
	for n := range ix.columns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ensureSorted sorts a column by value (incomparable values order by
// domain, then by doc id for stability). Caller holds the write lock.
//
// The order is not a total one — comparisons that cross value kinds
// (int / string / float) are not transitive — so the result depends on
// the algorithm, not only on the comparator: slices.SortStableFunc runs
// the same insertion-sort-plus-symMerge stable sort sort.SliceStable
// does, comparison for comparison, without its reflection-based swaps.
func (col *column) ensureSorted() {
	if col.sorted {
		return
	}
	slices.SortStableFunc(col.entries, compareEntries)
	col.sorted = true
}

// compareEntries is the column order: negative exactly when a sorts
// before b.
func compareEntries(a, b entry) int {
	if c, err := core.Compare(a.value, b.value); err == nil && c != 0 {
		return c
	} else if err != nil && a.value.Kind != b.value.Kind {
		return cmp.Compare(a.value.Kind, b.value.Kind)
	}
	return cmp.Compare(a.doc, b.doc)
}

// WriteCanonical writes the index's contents to w in a canonical text
// form: every column by attribute name, its entries in column order
// (sorting it first, as a query would), then every replicated tuple by
// document. Two indexes holding the same tuples write the same bytes
// however they were built, which is what the bulk-versus-incremental
// differential tests compare.
func (ix *Index) WriteCanonical(w io.Writer) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(ix.columns))
	for n := range ix.columns {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		col := ix.columns[n]
		col.ensureSorted()
		fmt.Fprintf(bw, "column %q\n", n)
		for _, e := range col.entries {
			fmt.Fprintf(bw, "\t%d %d:%q\n", e.doc, e.value.Kind, e.value)
		}
	}
	docs := make([]DocID, 0, len(ix.replica))
	for d := range ix.replica {
		docs = append(docs, d)
	}
	slices.Sort(docs)
	for _, d := range docs {
		tc := ix.replica[d]
		fmt.Fprintf(bw, "tuple %d", d)
		for i, attr := range tc.Schema {
			if i < len(tc.Tuple) {
				fmt.Fprintf(bw, " %s=%d:%q", attr.Name, tc.Tuple[i].Kind, tc.Tuple[i])
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Query returns the ids of documents whose attribute satisfies (op,
// value), in ascending id order. Documents lacking the attribute never
// match (including for NE). Values incomparable with the probe are
// skipped.
func (ix *Index) Query(attr string, op Op, value core.Value) []DocID {
	name := strings.ToLower(attr)
	// Fast path: an already-sorted column can be scanned under the read
	// lock, concurrently with other queries. The lock is held for the
	// whole scan — writers compact and re-sort col.entries in place, so
	// a snapshot of the slice header is not safe to read unlocked.
	ix.mu.RLock()
	col, ok := ix.columns[name]
	if ok && col.sorted {
		defer ix.mu.RUnlock()
		return col.query(op, value)
	}
	ix.mu.RUnlock()
	// Slow path after a write: sort under the write lock, then scan.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	col, ok = ix.columns[name]
	if !ok {
		return nil
	}
	col.ensureSorted()
	return col.query(op, value)
}

// query scans a sorted column; the caller holds ix.mu (read or write).
func (col *column) query(op Op, value core.Value) []DocID {
	entries := col.entries
	var out []DocID
	if op == EQ {
		// Binary search both boundaries of the equal run.
		lo := sort.Search(len(entries), func(i int) bool {
			c, err := core.Compare(entries[i].value, value)
			if err != nil {
				return entries[i].value.Kind >= value.Kind
			}
			return c >= 0
		})
		hi := sort.Search(len(entries), func(i int) bool {
			c, err := core.Compare(entries[i].value, value)
			if err != nil {
				return entries[i].value.Kind > value.Kind
			}
			return c > 0
		})
		for _, e := range entries[lo:hi] {
			if c, err := core.Compare(e.value, value); err == nil && c == 0 {
				out = append(out, e.doc)
			}
		}
		return sortIDs(out)
	}
	if op == NE {
		for _, e := range entries {
			c, err := core.Compare(e.value, value)
			if err != nil {
				continue
			}
			if c != 0 {
				out = append(out, e.doc)
			}
		}
		return sortIDs(out)
	}

	// Range scan over the comparable span: binary search the boundary.
	lower := sort.Search(len(entries), func(i int) bool {
		c, err := core.Compare(entries[i].value, value)
		if err != nil {
			// Order incomparable domains by Kind to keep Search monotone.
			return entries[i].value.Kind >= value.Kind
		}
		switch op {
		case GT:
			return c > 0
		case GE:
			return c >= 0
		default: // LT, LE: search the first entry beyond the span
			if op == LT {
				return c >= 0
			}
			return c > 0
		}
	})
	var span []entry
	switch op {
	case GT, GE:
		span = entries[lower:]
	case LT, LE:
		span = entries[:lower]
	}
	for _, e := range span {
		if _, err := core.Compare(e.value, value); err == nil {
			out = append(out, e.doc)
		}
	}
	return sortIDs(out)
}

// AttrCard returns the number of column entries for an attribute (one
// per document carrying it). Planner statistics surface.
func (ix *Index) AttrCard(attr string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	col, ok := ix.columns[strings.ToLower(attr)]
	if !ok {
		return 0
	}
	return len(col.entries)
}

// CardEstimate bounds the number of documents whose attribute satisfies
// (op, value) using the same binary searches as Query but without
// materializing ids: the width of the matching span (incomparable
// values at the span edges may inflate the bound slightly). O(log n)
// after the column is sorted.
func (ix *Index) CardEstimate(attr string, op Op, value core.Value) int {
	name := strings.ToLower(attr)
	ix.mu.Lock()
	col, ok := ix.columns[name]
	if !ok {
		ix.mu.Unlock()
		return 0
	}
	col.ensureSorted()
	entries := col.entries
	ix.mu.Unlock()

	lo := sort.Search(len(entries), func(i int) bool {
		c, err := core.Compare(entries[i].value, value)
		if err != nil {
			return entries[i].value.Kind >= value.Kind
		}
		return c >= 0
	})
	hi := sort.Search(len(entries), func(i int) bool {
		c, err := core.Compare(entries[i].value, value)
		if err != nil {
			return entries[i].value.Kind > value.Kind
		}
		return c > 0
	})
	switch op {
	case EQ:
		return hi - lo
	case NE:
		return len(entries) - (hi - lo)
	case LT:
		return lo
	case LE:
		return hi
	case GT:
		return len(entries) - hi
	case GE:
		return len(entries) - lo
	default:
		return len(entries)
	}
}

// Scan calls fn for every replicated document; iteration order is
// unspecified. fn returning false stops the scan.
func (ix *Index) Scan(fn func(DocID, core.TupleComponent) bool) {
	ix.mu.RLock()
	docs := make([]DocID, 0, len(ix.replica))
	for d := range ix.replica {
		docs = append(docs, d)
	}
	ix.mu.RUnlock()
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	for _, d := range docs {
		tc, ok := ix.Tuple(d)
		if !ok {
			continue
		}
		if !fn(d, tc) {
			return
		}
	}
}

// SizeBytes estimates the memory footprint of the replica and columns
// for the Table 3 reproduction.
func (ix *Index) SizeBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var n int64
	for name, col := range ix.columns {
		n += int64(len(name)) + 16
		n += int64(len(col.entries)) * 40
	}
	for _, tc := range ix.replica {
		n += 16
		for _, a := range tc.Schema {
			n += int64(len(a.Name)) + 8
		}
		for _, v := range tc.Tuple {
			n += 24 + int64(len(v.Str)) + int64(len(v.Bytes))
		}
	}
	return n
}

func sortIDs(ids []DocID) []DocID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Deduplicate (a doc may carry the same attribute once only, but be
	// defensive about repeated values after re-adds).
	out := ids[:0]
	var prev DocID
	for i, d := range ids {
		if i == 0 || d != prev {
			out = append(out, d)
			prev = d
		}
	}
	return out
}
