package server

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire_golden.json from this build's responses")

// wireGolden pins /query response bodies by digest. The file was
// written by the commit that still ordered and resolved whole results
// inside the handler, so it is the parent in a parent-vs-change
// comparison: any byte that moves in a response fails here.
type wireGolden struct {
	// FirstPages maps Q1..Q8 to the digest of the first page at limit 100.
	FirstPages map[string]string `json:"first_pages"`
	// Q1Walk is the digest of every page of a full Q1 cursor walk.
	Q1Walk []string `json:"q1_walk"`
	// Q1Cursor is the cursor the first Q1 page handed out: a v1 token
	// minted by the build that wrote this file.
	Q1Cursor string `json:"q1_cursor"`
}

func bodyDigest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestWireGolden replays the eight paper queries and a full Q1 cursor
// walk over the scale-0.05 dataset and compares every response body,
// byte for byte, with what the recorded build answered; it then resumes
// the recorded cursor literal, which must land on the recorded second
// page.
func TestWireGolden(t *testing.T) {
	_, c := newTestServer(t, Config{})
	c.must("POST", "gold", "/sources",
		map[string]any{"type": "dataset", "scale": 0.05, "seed": 42, "sync": true}, http.StatusOK)

	page := func(q, cursor string) ([]byte, string) {
		t.Helper()
		body := map[string]any{"q": q, "limit": 100}
		if cursor != "" {
			body["cursor"] = cursor
		}
		b := c.must("POST", "gold", "/query", body, http.StatusOK)
		var resp struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		return b, resp.NextCursor
	}

	got := wireGolden{FirstPages: map[string]string{}}
	var q1 string
	for _, q := range experiments.PaperQueries() {
		b, _ := page(q.IQL, "")
		got.FirstPages[q.ID] = bodyDigest(b)
		if q.ID == "Q1" {
			q1 = q.IQL
		}
	}
	for cursor := ""; ; {
		b, next := page(q1, cursor)
		got.Q1Walk = append(got.Q1Walk, bodyDigest(b))
		if cursor == "" {
			got.Q1Cursor = next
		}
		if next == "" {
			break
		}
		cursor = next
	}

	path := filepath.Join("testdata", "wire_golden.json")
	if *updateWireGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want wireGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for id, w := range want.FirstPages {
		if got.FirstPages[id] != w {
			t.Errorf("%s first page: body digest %s, recorded %s", id, got.FirstPages[id], w)
		}
	}
	if len(got.Q1Walk) != len(want.Q1Walk) {
		t.Fatalf("Q1 walk: %d pages, recorded %d", len(got.Q1Walk), len(want.Q1Walk))
	}
	if len(want.Q1Walk) < 3 {
		t.Fatalf("recorded Q1 walk has %d pages; the dataset no longer exercises cursors", len(want.Q1Walk))
	}
	for i, w := range want.Q1Walk {
		if got.Q1Walk[i] != w {
			t.Errorf("Q1 walk page %d: body digest %s, recorded %s", i, got.Q1Walk[i], w)
		}
	}
	if b, _ := page(q1, want.Q1Cursor); bodyDigest(b) != want.Q1Walk[1] {
		t.Errorf("recorded cursor %q did not resume onto the recorded second page", want.Q1Cursor)
	}
}
