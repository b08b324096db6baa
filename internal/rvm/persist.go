package rvm

import (
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/textindex"
	"repro/internal/tupleindex"
)

// This file wires the Resource View Manager to the durability layer
// (internal/store): a manager can be rebuilt from a recovered state
// without re-walking any source. The write-ahead half — records are
// logged before they are applied — is apply.go's commit. See
// docs/PERSISTENCE.md.

// Store returns the durability layer the manager logs to (nil when the
// dataspace is in-memory only).
func (m *Manager) Store() storage.Engine { return m.opts.Store }

// Checkpoint compacts the durable state into a fresh snapshot and
// truncates the WAL; a no-op without a store.
func (m *Manager) Checkpoint() error {
	if m.opts.Store == nil {
		return nil
	}
	return m.opts.Store.Snapshot()
}

// StateDigest returns the stable-serialization digest of the durable
// state ("" when the dataspace is in-memory only).
func (m *Manager) StateDigest() string {
	if m.opts.Store == nil {
		return ""
	}
	return m.opts.Store.Digest()
}

// RestoreFromState rebuilds the Replica & Indexes module from a
// recovered durable state — OpenDurable after recovery, or a replica
// installing a full-state image (ResetFromState). Whatever the module
// held is discarded, and the state's canonical record sequence is
// replayed through apply, the same code a sync or a shipped record goes
// through, with the text and tuple postings collected by the bulk
// builders and swapped in at the end. The content index, the largest,
// builds on a goroutine of its own (contentBuild), beside the replicas
// and the name and tuple builds on the caller's; the two join before
// the swap. The manager's catalog must already hold the state's
// entries (catalog.Rebuild / Reset).
//
// Live views stay unresolved until the sources are re-added and synced;
// queries answer from the replicas meanwhile, exactly as they do for a
// degraded source.
func (m *Manager) RestoreFromState(st *store.State) {
	if st == nil {
		return
	}
	m.mu.Lock()
	m.replicas = newReplicas(len(st.Views))
	m.mu.Unlock()
	var nameBytes, textDocs, textBytes int
	for _, v := range st.Views {
		nameBytes += len(v.Entry.Name)
		if v.Text != "" {
			textDocs++
			textBytes += len(v.Text)
		}
	}
	nameB, tupleB := textindex.NewBuilder(), tupleindex.NewBuilder()
	nameB.Grow(len(st.Views), nameBytes)
	contentB := textindex.NewBuilder()
	contentB.Grow(textDocs, textBytes)
	content := startContentBuild(contentB)
	sink := indexSink{nameIdx: nameB, contentIdx: content, tupleIdx: tupleB}
	for _, rec := range st.Records() {
		// Records() yields meta, upserts and edges only: nothing apply
		// can reject, and no removal that would miss the builders.
		m.apply(sink, rec)
	}
	nameIdx, tupleIdx := nameB.Build(), tupleB.Build()
	contentIdx := content.Build()
	m.mu.Lock()
	m.nameIdx, m.contentIdx, m.tupleIdx = nameIdx, contentIdx, tupleIdx
	m.mu.Unlock()
	m.met.views.Set(int64(m.catalog.Count()))
}

// contentBuild is the content-index sink of a restore: Add hands each
// document to a goroutine that feeds a textindex.Builder, and Build
// closes the feed and waits for that goroutine to build the index. The
// documents travel in batches, in apply order, so the index is the one
// the builder would produce on the caller's goroutine.
type contentBuild struct {
	batch []docText
	feed  chan []docText
	built chan *textindex.Index
}

type docText struct {
	doc  textindex.DocID
	text string
}

// contentBatch is how many documents one hand-off carries.
const contentBatch = 64

func startContentBuild(b *textindex.Builder) *contentBuild {
	c := &contentBuild{
		batch: make([]docText, 0, contentBatch),
		// A few batches of slack let the caller run ahead of the
		// builder without blocking on every hand-off.
		feed:  make(chan []docText, 4),
		built: make(chan *textindex.Index, 1),
	}
	go func() {
		for batch := range c.feed {
			for _, d := range batch {
				b.Add(d.doc, d.text)
			}
		}
		c.built <- b.Build()
	}()
	return c
}

func (c *contentBuild) Add(doc textindex.DocID, text string) {
	c.batch = append(c.batch, docText{doc: doc, text: text})
	if len(c.batch) == contentBatch {
		c.feed <- c.batch
		c.batch = make([]docText, 0, contentBatch)
	}
}

// Build sends the last batch, ends the feed and returns the index.
func (c *contentBuild) Build() *textindex.Index {
	if len(c.batch) > 0 {
		c.feed <- c.batch
	}
	close(c.feed)
	return <-c.built
}
