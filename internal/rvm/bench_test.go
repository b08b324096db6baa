package rvm

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/convert"
	"repro/internal/dataset"
	"repro/internal/sources/fsplugin"
	"repro/internal/sources/mailplugin"
	"repro/internal/sources/relplugin"
	"repro/internal/sources/rssplugin"
	"repro/internal/storage"
	"repro/internal/store"
)

// benchState generates a dataset at the given scale, syncs all four of
// its sources through a WAL-backed manager and returns the durable
// state: what recovery hands OpenDurable.
func benchState(b *testing.B, scale float64) *store.State {
	b.Helper()
	eng, _, err := storage.Open(b.TempDir(), storage.Options{Sync: store.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	opts := DefaultOptions()
	opts.Store = eng
	m := New(opts)
	d := dataset.Generate(dataset.Config{Scale: scale, Seed: 42})
	conv := convert.Default().Func()
	for _, err := range []error{
		m.AddSource(fsplugin.New("filesystem", d.FS, conv)),
		m.AddSource(mailplugin.New("email", d.Mail, conv)),
		m.AddSource(rssplugin.New("rss", d.RSS, 0)),
		m.AddSource(relplugin.New("reldb", d.Rel)),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, err := m.SyncAll(); err != nil {
		b.Fatal(err)
	}
	state, _ := eng.CloneState()
	return state
}

// BenchmarkRestoreFromState times the Replica & Indexes rebuild of a
// tenant cold open: a scale-0.03 state restored into a manager whose
// catalog was rebuilt outside the timed region.
func BenchmarkRestoreFromState(b *testing.B) {
	state := benchState(b, 0.03)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := NewWithCatalog(DefaultOptions(), catalog.Rebuild(state.NextOID, state.Entries()))
		b.StartTimer()
		m.RestoreFromState(state)
	}
}
