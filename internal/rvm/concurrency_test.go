package rvm

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/iql"
)

// TestConcurrentQueriesDuringSync hammers the manager with queries and
// navigation while a writer keeps mutating the filesystem and
// re-synchronizing. Run with -race; the assertion is the absence of
// races and panics, plus internally consistent results.
func TestConcurrentQueriesDuringSync(t *testing.T) {
	m, fs, _ := testSetup(t, DefaultOptions())
	if _, err := m.SyncAll(); err != nil {
		t.Fatal(err)
	}
	engine := iql.NewEngine(m, iql.Options{})

	var readers, writer sync.WaitGroup
	stop := make(chan struct{})

	// Writer: mutate and resync until the readers are done. The first
	// write+sync runs before stop is looked at: the bounded readers can
	// finish before this goroutine is first scheduled, and the
	// post-condition below needs at least one generated file.
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			if i > 0 {
				select {
				case <-stop:
					return
				default:
				}
			}
			fs.WriteFile(fmt.Sprintf("/Projects/PIM/gen-%03d.txt", i%20),
				[]byte(fmt.Sprintf("generated content %d with database words", i)))
			if _, err := m.SyncSource("filesystem"); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()

	// Readers: queries, navigation, stats.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			queries := []string{
				`"database"`,
				`//PIM//*[class="latex_section"]`,
				`[size > 10]`,
				`//[name = "*.txt"]`,
			}
			for i := 0; i < 50; i++ {
				q := queries[(i+r)%len(queries)]
				if _, err := engine.Query(q); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for _, oid := range m.AllOIDs()[:min(8, m.Count())] {
					m.Children(oid)
					m.Parents(oid)
					m.NameOf(oid)
				}
				m.IndexSizes()
				m.Breakdown("filesystem")
			}
		}(r)
	}

	// Journal reader.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < 200; i++ {
			m.Changes(0)
			m.Version()
		}
	}()

	// The readers are bounded; once they finish, stop the writer.
	readers.Wait()
	close(stop)
	writer.Wait()

	// Post-condition: the dataspace is still consistent.
	if _, err := m.SyncSource("filesystem"); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Query(`"generated content"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() == 0 {
		t.Error("no generated files indexed")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
