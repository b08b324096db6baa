package idm_test

import (
	"testing"

	idm "repro"
)

// TestCatalogPersistenceStableOIDs checks that OIDs survive a restart:
// a durable system reopened from its DataDir, with the same sources
// re-added and re-indexed, gives every view the OID it had before.
func TestCatalogPersistenceStableOIDs(t *testing.T) {
	d := idm.GenerateDataset(idm.DatasetConfig{Scale: 0.01, Seed: 3})
	cfg := idm.Config{Now: fixedNow, DataDir: t.TempDir()}
	sys, _, err := idm.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDataset(d); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	before, err := sys.Query(`//vldb2006.tex`)
	if err != nil || before.Count() == 0 {
		t.Fatalf("query: %v (%d)", err, before.Count())
	}
	count := sys.Count()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	restored, _, err := idm.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Count() != count {
		t.Errorf("restored count %d != %d", restored.Count(), count)
	}
	// Re-attach the same sources and re-index: OIDs stay stable.
	if err := restored.AddDataset(d); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Index(); err != nil {
		t.Fatal(err)
	}
	after, err := restored.Query(`//vldb2006.tex`)
	if err != nil || after.Count() != before.Count() {
		t.Fatalf("after restore: %v (%d vs %d)", err, after.Count(), before.Count())
	}
	for i := range before.Items {
		if before.Items[i].OID != after.Items[i].OID {
			t.Errorf("OID changed across restart: %d → %d", before.Items[i].OID, after.Items[i].OID)
		}
	}
}

func TestVersioningFacade(t *testing.T) {
	fs := idm.NewFileSystem()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/a.txt", []byte("one"))
	sys := idm.Open(idm.Config{Now: fixedNow})
	sys.AddFileSystem("filesystem", fs)
	sys.Index()
	v := sys.Version()
	if v == 0 {
		t.Fatal("no versions after index")
	}
	fs.WriteFile("/d/b.txt", []byte("two"))
	fs.Remove("/d/a.txt")
	sys.Index()
	changes := sys.Changes(v)
	kinds := map[string]int{}
	for _, c := range changes {
		kinds[c.Kind.String()]++
	}
	if kinds["added"] != 1 || kinds["removed"] != 1 {
		t.Errorf("changes = %v (%+v)", kinds, changes)
	}
}

func TestLineageFacadeAcrossEmail(t *testing.T) {
	sys := openIndexed(t)
	// A figure inside a .tex attachment of an email message: lineage
	// should pass through the converter, the attachment and the message.
	res, err := sys.Query(`//email//[class="figure"]`)
	if err != nil || res.Count() == 0 {
		// The email source root is named "email".
		t.Fatalf("figure in email: %v (%d)", err, res.Count())
	}
	steps, err := sys.Lineage(res.Items[0].OID)
	if err != nil {
		t.Fatal(err)
	}
	var sawConverter, sawAttachment, sawMessage bool
	for _, s := range steps {
		if s.Relation == "derived-by latex2idm" {
			sawConverter = true
		}
		if s.Class == "attachment" {
			sawAttachment = true
		}
		if s.Class == "emailmessage" {
			sawMessage = true
		}
	}
	if !sawConverter || !sawAttachment || !sawMessage {
		t.Errorf("lineage misses hops (converter=%v attachment=%v message=%v): %+v",
			sawConverter, sawAttachment, sawMessage, steps)
	}
}

func TestRankedQueryOnDataset(t *testing.T) {
	sys := openIndexed(t)
	res, err := sys.QueryRanked(`"database"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != res.Count() || res.Count() == 0 {
		t.Fatalf("scores=%d count=%d", len(res.Scores), res.Count())
	}
	for i := 1; i < len(res.Scores); i++ {
		if res.Scores[i] > res.Scores[i-1] {
			t.Fatalf("scores not descending at %d: %v > %v", i, res.Scores[i], res.Scores[i-1])
		}
	}
	if res.Scores[0] < 2 {
		t.Errorf("top score = %v, expected a multi-occurrence document first", res.Scores[0])
	}
}
