package main

import (
	"testing"

	idm "repro"
	"repro/internal/textindex"
)

func TestColdPoolIsDeterministicDistinctAndAnswered(t *testing.T) {
	data := idm.GenerateDataset(idm.DatasetConfig{Scale: 0.02, Seed: 42})
	ref, err := idm.OpenDataset(data, idm.Config{Parallelism: 1, QueryLogSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Index(); err != nil {
		t.Fatal(err)
	}
	c := readCorpus(data)
	pool := coldPool(c, coldPoolSize, 42)
	if len(pool) < coldPoolSize {
		t.Fatalf("pool has %d queries, want at least %d", len(pool), coldPoolSize)
	}
	again := coldPool(readCorpus(data), coldPoolSize, 42)
	other := coldPool(c, coldPoolSize, 43)
	same := 0
	seen := map[string]bool{}
	perFam := [numFamilies]int{}
	for i, q := range pool {
		if q.text != again[i].text {
			t.Fatalf("query %d differs between two runs of the same seed", i)
		}
		if i < len(other) && q.text == other[i].text {
			same++
		}
		if seen[q.text] {
			t.Fatalf("query %q appears twice", q.text)
		}
		seen[q.text] = true
		if err := idm.Validate(q.text); err != nil {
			t.Fatalf("%s query does not parse: %v", q.fam, err)
		}
		perFam[q.fam]++
	}
	if same > len(pool)/10 {
		t.Errorf("%d of %d queries equal under another seed", same, len(pool))
	}
	for f := family(0); f < numFamilies; f++ {
		if got, want := float64(perFam[f])/float64(len(pool)), familyShare[f]; got < want*0.9 || got > want*1.1 {
			t.Errorf("family %s is %.3f of the pool, want %.3f", f, got, want)
		}
	}

	// At least four in five must find something in the dataset they were
	// written from.
	nonEmpty := 0
	for _, q := range pool {
		res, err := ref.Query(q.text)
		if err != nil {
			t.Fatalf("reference rejects %q: %v", q.text, err)
		}
		if res.Count() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty*5 < len(pool)*4 {
		t.Errorf("only %d of %d queries return rows", nonEmpty, len(pool))
	}
}

func TestSourcesAreSeededAndMarked(t *testing.T) {
	a, b, c := newSource(5, 3), newSource(5, 3), newSource(5, 4)
	if string(a.body) != string(b.body) {
		t.Error("same (seed, n), different source")
	}
	if a.marker == c.marker || a.id == c.id {
		t.Error("two sources share a marker or an id")
	}
	if len(a.files) != filesPerSource {
		t.Errorf("%d files, want %d", len(a.files), filesPerSource)
	}
	for p, content := range a.files {
		toks := textindex.Tokenize(content)
		if toks[0] != a.marker {
			t.Errorf("%s: first token %q, want the marker %q as one word", p, toks[0], a.marker)
		}
		if len(content) < fileBytes || len(content) > fileBytes+16 {
			t.Errorf("%s: %d bytes, want about %d", p, len(content), fileBytes)
		}
	}
}

func TestWriterStreamKeepsTenantsUnderQuota(t *testing.T) {
	e := &env{w: findWorkload("ingest_mixed"), seed: 1}
	live := map[int]map[string]bool{}
	for i := 0; i < 400; i++ {
		o := e.writerOp(i, 4)
		if live[o.tenant] == nil {
			live[o.tenant] = map[string]bool{}
		}
		switch o.kind {
		case kIngest:
			if live[o.tenant][o.src.id] {
				t.Fatalf("op %d re-adds live source %s", i, o.src.id)
			}
			live[o.tenant][o.src.id] = true
		case kDelete:
			if !live[o.tenant][o.src.id] {
				t.Fatalf("op %d deletes %s, which tenant %d does not hold", i, o.src.id, o.tenant)
			}
			delete(live[o.tenant], o.src.id)
		}
		// 4 dataset sources + these must fit -quota-sources 16.
		if n := len(live[o.tenant]); n > liveSources+1 {
			t.Fatalf("tenant %d holds %d ingested sources after op %d", o.tenant, n, i)
		}
	}
}
