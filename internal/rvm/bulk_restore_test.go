package rvm

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/store"
)

// canonicalDump renders the Replica & Indexes module exactly: the probe
// digest (catalog entries, group and parent replicas, name and class
// lanes), then the name and content indexes term by term (documents,
// positions, per-document token counts) and the tuple index column by
// column in order, then the net input per source.
func canonicalDump(t *testing.T, m *Manager) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(probeDigest(m))
	for _, ix := range []struct {
		name string
		ix   interface{ WriteCanonical(io.Writer) error }
	}{{"name", m.nameIdx}, {"content", m.contentIdx}, {"tuple", m.tupleIdx}} {
		fmt.Fprintf(&b, "== %s index\n", ix.name)
		if err := ix.ix.WriteCanonical(&b); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{"filesystem", "email", "extra", "edgesonly"} {
		fmt.Fprintf(&b, "net input %s=%d\n", src, m.NetInputBytes(src))
	}
	return b.String()
}

// mixedState is a durable leader's state plus views that take the
// analyzer's slow paths and stress the tuple column order: upper-case
// and non-ASCII names and text, views with no text, a tuple column that
// mixes value kinds and nulls, and a source that holds only group
// edges.
func mixedState(t *testing.T) (*Manager, *store.State) {
	t.Helper()
	leader, st := durableLeader(t)
	state, _ := st.CloneState()
	next := state.NextOID
	mixed := core.Schema{{Name: "Size", Domain: core.DomainInt}, {Name: "owner", Domain: core.DomainString}}
	add := func(name, text string, size, owner core.Value) catalog.OID {
		next++
		v := &store.ViewRecord{
			Entry: catalog.Entry{OID: next, Name: name, Class: "file", Source: "extra",
				URI: fmt.Sprintf("/extra/%d", next), HasContent: text != "", ContentSize: int64(len(text))},
			Text: text,
		}
		if size.Kind != core.DomainNull || owner.Kind != core.DomainNull {
			v.Tuple = core.TupleComponent{Schema: mixed, Tuple: core.Tuple{size, owner}}
			v.Entry.HasTuple = true
		}
		state.Apply(store.Record{Kind: store.KindUpsert, View: v})
		return next
	}
	a := add("ÜBERSICHT.TXT", "Ünïcode Wörds: ΣΟΦΙΑ σοφίας, İstanbul ıı DATASPACE", core.Int(42), core.String("Ünï"))
	b := add("Straße.tex", "", core.String("big"), core.Null())
	c := add("KELVIN ０９", "Kelvin ０９ café café 😀data😀model bad\xffbytes", core.Float(41.5), core.String("alice"))
	add("NoText", "", core.Null(), core.Null())
	add("MIXED Case Name", "The iDM Data Model UNIFIES files and Tuples; the data model", core.Null(), core.Int(7))
	add("", "PERSONAL dataspace MANAGEMENT", core.Int(-3), core.Null())
	state.Apply(store.Record{Kind: store.KindMeta, NextOID: next + 5})
	state.Apply(store.Record{Kind: store.KindEdges, Source: "edgesonly",
		Edges: []store.EdgeList{{Parent: a, Children: []catalog.OID{b, c}}, {Parent: c, Children: []catalog.OID{a}}}})
	return leader, state
}

// TestBulkRestoreEquivalence is the differential pin for the bulk index
// build: restoring a durable state with RestoreFromState (records
// replayed into the bulk builders, the content index on its own
// goroutine) and feeding the same records one ApplyRecord at a time
// into a fresh manager's live indexes must leave the two managers
// identical — every posting, position, token count and tuple column
// entry in the same order, not merely the same probe answers.
func TestBulkRestoreEquivalence(t *testing.T) {
	leader, state := mixedState(t)

	bulk := NewWithCatalog(Options{ReplicateGroups: true},
		catalog.Rebuild(state.NextOID, state.Entries()))
	bulk.RestoreFromState(state)

	incr := newFollower()
	for _, rec := range state.Records() {
		if err := incr.ApplyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}

	want := canonicalDump(t, incr)
	for _, part := range []string{`term "σοφίας"`, `term "kelvin"`, `"ÜBERSICHT.TXT" file extra`} {
		if !strings.Contains(want, part) {
			t.Fatalf("the incremental manager's dump lacks %s:\n%s", part, want)
		}
	}
	if got := canonicalDump(t, bulk); got != want {
		t.Fatalf("bulk and incremental restores diverge:\nbulk:\n%s\nincremental:\n%s", got, want)
	}
	for _, src := range []string{"filesystem", "email"} {
		if got, want := bulk.NetInputBytes(src), leader.NetInputBytes(src); got != want {
			t.Errorf("net input of %s: restored %d, leader %d", src, got, want)
		}
	}
	// Restoring discards what the module held, so a second restore into
	// the now-populated manager converges on the same contents, and so
	// does a replica installing the state as a full image.
	bulk.RestoreFromState(state)
	if got := canonicalDump(t, bulk); got != want {
		t.Fatalf("warm re-restore diverged:\n%s\nvs\n%s", got, want)
	}
	fl := newFollower()
	_, st := durableLeader(t)
	replicate(t, st, fl, 0)
	fl.ResetFromState(state)
	if got := canonicalDump(t, fl); got != want {
		t.Fatalf("ResetFromState diverged:\n%s\nvs\n%s", got, want)
	}
}
