package tupleindex

import "repro/internal/core"

// Builder constructs an Index with a bulk build: Add appends column
// entries without locking, and Build sorts every column exactly once —
// so the first post-restore query never pays the lazy re-sort. A
// Builder is single-use and not safe for concurrent use; the Index it
// returns is.
type Builder struct {
	ix *Index
}

// NewBuilder returns an empty bulk builder.
func NewBuilder() *Builder { return &Builder{ix: New()} }

// Add spills one document's tuple component; re-adding a document
// replaces it, exactly as Index.Add does.
func (b *Builder) Add(doc DocID, tc core.TupleComponent) { b.ix.addLocked(doc, tc) }

// DocCount returns the number of documents added so far.
func (b *Builder) DocCount() int { return len(b.ix.replica) }

// Build sorts every column once and returns the index. The builder
// must not be used afterwards.
func (b *Builder) Build() *Index {
	for _, col := range b.ix.columns {
		col.ensureSorted()
	}
	ix := b.ix
	b.ix = nil
	return ix
}
