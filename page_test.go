package idm_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	idm "repro"
	"repro/internal/iql"
	"repro/internal/obs"
)

// rowOIDs is a row's key: its OIDs in column order.
func rowOIDs(row idm.Row) []idm.OID {
	k := make([]idm.OID, len(row))
	for i, it := range row {
		k[i] = it.OID
	}
	return k
}

// walkPages pages q to exhaustion at the given limit, feeding each
// page's Next back as `after`.
func walkPages(t *testing.T, sys *idm.System, q string, limit int) (rows []idm.Row, total int) {
	t.Helper()
	var after []idm.OID
	for pages := 0; ; pages++ {
		p, err := sys.QueryPage(q, after, limit)
		if err != nil {
			t.Fatalf("%q page %d: %v", q, pages, err)
		}
		if len(p.Rows) > limit {
			t.Fatalf("%q page %d: %d rows over limit %d", q, pages, len(p.Rows), limit)
		}
		if pages == 0 {
			total = p.Total
		} else if p.Total != total {
			t.Fatalf("%q page %d: total %d, first page said %d", q, pages, p.Total, total)
		}
		rows = append(rows, p.Rows...)
		if p.Next == nil {
			return rows, total
		}
		if !slices.Equal(p.Next, rowOIDs(p.Rows[len(p.Rows)-1])) {
			t.Fatalf("%q page %d: Next %v is not the last row's key", q, pages, p.Next)
		}
		after = p.Next
		if pages > 100000 {
			t.Fatalf("%q: walk did not terminate", q)
		}
	}
}

// TestQueryPageDifferential is the paged-vs-whole differential: for
// 1000 grammar-generated queries plus the eight paper queries, the
// pages of a walk at limits 1, 7 and 100, concatenated, are exactly
// Query's rows ordered by key, every page reports Query's row count as
// total, and Result.Items is the distinct first column in ascending OID
// order. (The engine returns sets: no key occurs twice, which a cursor
// that resumes strictly after a key relies on.)
func TestQueryPageDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-generation differential suite")
	}
	sys := openIndexed(t)
	g := iql.NewGen(7, iql.DefaultVocab())
	var queries []string
	for _, q := range paperQueries {
		queries = append(queries, q)
	}
	for i := 0; i < 1000; i++ {
		queries = append(queries, g.Query())
	}
	errQueries, multiPage, multiColumn := 0, 0, 0
	for _, q := range queries {
		res, err := sys.Query(q)
		if err != nil {
			errQueries++
			if _, perr := sys.QueryPage(q, nil, 7); perr == nil {
				t.Fatalf("%q: Query failed (%v) but QueryPage answered", q, err)
			}
			continue
		}
		want := slices.Clone(res.Rows)
		slices.SortFunc(want, func(a, b idm.Row) int { return slices.Compare(rowOIDs(a), rowOIDs(b)) })
		for i := 1; i < len(want); i++ {
			if slices.Equal(rowOIDs(want[i-1]), rowOIDs(want[i])) {
				t.Fatalf("%q: key %v occurs twice in Query's rows", q, rowOIDs(want[i]))
			}
		}
		if len(want) > 100 {
			multiPage++
		}
		if len(res.Columns) > 1 && len(want) > 1 {
			multiColumn++
		}
		if all, err := sys.QueryPage(q, nil, 0); err != nil || len(all.Rows) != len(want) || all.Next != nil {
			t.Fatalf("%q limit 0: %v, %d rows (want %d), Next %v", q, err, len(all.Rows), len(want), all.Next)
		}
		for _, limit := range []int{1, 7, 100} {
			got, total := walkPages(t, sys, q, limit)
			if total != res.Count() {
				t.Fatalf("%q limit %d: total %d, Query counted %d", q, limit, total, res.Count())
			}
			if len(got) != len(want) {
				t.Fatalf("%q limit %d: walk returned %d rows, want %d", q, limit, len(got), len(want))
			}
			for i := range got {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%q limit %d row %d: paged %+v, Query %+v", q, limit, i, got[i], want[i])
				}
			}
		}
		var first []idm.OID
		for _, row := range res.Rows {
			first = append(first, row[0].OID)
		}
		slices.Sort(first)
		first = slices.Compact(first)
		if len(res.Items) != len(first) {
			t.Fatalf("%q: %d Items, %d distinct first-column OIDs", q, len(res.Items), len(first))
		}
		for i, it := range res.Items {
			if it.OID != first[i] || it.Path == "" {
				t.Fatalf("%q: Items[%d] = %+v, want OID %d resolved", q, i, it, first[i])
			}
		}
	}
	if errQueries == len(queries) {
		t.Fatal("every generated query errored; the generator is broken")
	}
	if multiPage == 0 || multiColumn == 0 {
		t.Fatalf("weak corpus: %d results over 100 rows, %d multi-row joins", multiPage, multiColumn)
	}
}

// pagedDocs builds a durable single-source dataspace of n matching
// documents.
func pagedDocs(t *testing.T, dir string, n int) *idm.System {
	t.Helper()
	sys, _, err := idm.OpenDurable(idm.Config{DataDir: dir, Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if n > 0 {
		addDocs(t, sys, "docs", "doc", n)
	}
	return sys
}

func addDocs(t *testing.T, sys *idm.System, id, prefix string, n int) {
	t.Helper()
	fs := idm.NewFileSystem()
	fs.MkdirAll("/" + id)
	for i := 0; i < n; i++ {
		fs.WriteFile(fmt.Sprintf("/%s/%s%02d.txt", id, prefix, i), []byte(fmt.Sprintf("%s %02d carries pagedoc", prefix, i)))
	}
	if err := sys.AddFileSystem(id, fs); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryPageStableUnderMutation pins the cursor contract at the
// facade, where the ordering now lives: while sources are added and
// removed between the pages of a walk, keys still strictly increase (no
// row twice), and every row that existed untouched throughout is seen.
func TestQueryPageStableUnderMutation(t *testing.T) {
	sys := pagedDocs(t, t.TempDir(), 20)
	addDocs(t, sys, "doomed", "gone", 6)
	const q = `"pagedoc"`
	full, err := sys.Query(q)
	if err != nil || full.Count() != 26 {
		t.Fatalf("setup: %v (%d rows)", err, full.Count())
	}
	survivors := map[idm.OID]string{}
	for _, row := range full.Rows {
		if row[0].Source == "docs" {
			survivors[row[0].OID] = row[0].Path
		}
	}

	var seen []idm.OID
	var after []idm.OID
	for page := 0; ; page++ {
		p, err := sys.QueryPage(q, after, 7)
		if err != nil {
			t.Fatalf("page %d: %v", page, err)
		}
		for _, row := range p.Rows {
			seen = append(seen, row[0].OID)
		}
		switch page {
		case 0: // rows land mid-walk…
			addDocs(t, sys, "late", "late", 5)
		case 1: // …and rows leave mid-walk, some of them already returned
			if err := sys.RemoveSource("doomed"); err != nil {
				t.Fatal(err)
			}
		}
		if p.Next == nil {
			break
		}
		after = p.Next
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("row %d: OID %d not strictly after %d", i, seen[i], seen[i-1])
		}
	}
	for oid, path := range survivors {
		if !slices.Contains(seen, oid) {
			t.Errorf("untouched row %d (%s) lost by the mutation-interleaved walk", oid, path)
		}
	}
}

// TestQueryPageResumesAcrossReopen: a key taken from one System resumes
// on a System reopened from the same directory — what a tenant eviction
// does under a cursor — with exactly the rows an uninterrupted walk
// returns.
func TestQueryPageResumesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	sys := pagedDocs(t, dir, 12)
	const q = `"pagedoc"`
	reference, _ := walkPages(t, sys, q, 5)
	if len(reference) != 12 {
		t.Fatalf("reference walk: %d rows, want 12", len(reference))
	}
	p, err := sys.QueryPage(q, nil, 5)
	if err != nil || p.Next == nil {
		t.Fatalf("page 1: %v", err)
	}
	got := p.Rows
	after := slices.Clone(p.Next)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := pagedDocs(t, dir, 0)
	for after != nil {
		p, err := reopened.QueryPage(q, after, 5)
		if err != nil {
			t.Fatalf("resumed page: %v", err)
		}
		got = append(got, p.Rows...)
		after = p.Next
	}
	if len(got) != len(reference) {
		t.Fatalf("resumed walk: %d rows, reference %d", len(got), len(reference))
	}
	for i := range got {
		if !slices.Equal(got[i], reference[i]) {
			t.Fatalf("row %d diverged across reopen: %+v != %+v", i, got[i], reference[i])
		}
	}
}

// TestQueryPageForeignKeys: `after` crosses the network inside a cursor
// and is never trusted. A key that matches no row, lies beyond the end,
// or has the wrong arity positions the page by plain lexicographic
// comparison — it can return an empty page, never an error or a panic.
func TestQueryPageForeignKeys(t *testing.T) {
	sys := openIndexed(t)
	join := paperQueries["Q8"]
	all, _ := walkPages(t, sys, join, 1000)
	if len(all) < 2 {
		t.Fatalf("Q8 returned %d rows; need a multi-row join", len(all))
	}
	k0, k1 := rowOIDs(all[0]), rowOIDs(all[1])
	for _, tc := range []struct {
		name  string
		after []idm.OID
		want  []idm.OID // key of the first row returned; nil = empty page
	}{
		{"empty key starts over", []idm.OID{}, k0},
		{"prefix of the first key sorts before it", k0[:1], k0},
		{"first key extended sorts after it", append(slices.Clone(k0), 0), k1},
		{"between rows", []idm.OID{k0[0], k0[1] + 1}, firstKeyAfter(all, []idm.OID{k0[0], k0[1] + 1})},
		{"beyond the end", []idm.OID{^idm.OID(0)}, nil},
	} {
		p, err := sys.QueryPage(join, tc.after, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.Total != len(all) {
			t.Errorf("%s: total %d, want %d", tc.name, p.Total, len(all))
		}
		switch {
		case tc.want == nil && len(p.Rows) != 0:
			t.Errorf("%s: got %d rows, want an empty page", tc.name, len(p.Rows))
		case tc.want != nil && (len(p.Rows) != 1 || !slices.Equal(rowOIDs(p.Rows[0]), tc.want)):
			t.Errorf("%s: page %+v, want first key %v", tc.name, p.Rows, tc.want)
		}
		if len(p.Rows) == 0 && p.Next != nil {
			t.Errorf("%s: empty page hands out Next %v", tc.name, p.Next)
		}
	}
	if _, err := sys.QueryPage(`//bad[`, nil, 10); err == nil {
		t.Error("bad query accepted")
	}
}

func firstKeyAfter(rows []idm.Row, after []idm.OID) []idm.OID {
	for _, row := range rows {
		if k := rowOIDs(row); slices.Compare(k, after) > 0 {
			return k
		}
	}
	return nil
}

// TestQueryPageConcurrent is the -race test for the shared entry:
// several pagers walk one cached result at different limits while a
// Query caller takes the fully resolved Result from the same entry and
// a writer keeps bumping the dataspace version underneath them, so
// entries are filled, shared and replaced concurrently. Every walk must
// still be strictly ascending, and every walk and every Query must see
// every row of the base source, which is never touched.
func TestQueryPageConcurrent(t *testing.T) {
	sys := pagedDocs(t, t.TempDir(), 40)
	const q = `"pagedoc"`
	base, _ := walkPages(t, sys, q, 100)
	if len(base) != 40 {
		t.Fatalf("setup: %d rows", len(base))
	}
	basePaths := map[idm.OID]string{}
	for _, row := range base {
		basePaths[row[0].OID] = row[0].Path
	}

	// The writer's last cycle ends the test: readers keep going until
	// then, so every one of them runs across version bumps.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 30; i++ {
			id := fmt.Sprintf("churn%d", i%2)
			fs := idm.NewFileSystem()
			fs.WriteFile("/c.txt", []byte("churn pagedoc"))
			if err := sys.AddFileSystem(id, fs); err != nil {
				t.Error(err)
				return
			}
			if _, err := sys.Index(); err != nil {
				t.Error(err)
				return
			}
			if err := sys.RemoveSource(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	finished := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	for _, limit := range []int{1, 3, 7, 100} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; !finished(); round++ {
				var after []idm.OID
				seen := map[idm.OID]bool{}
				last := idm.OID(0)
				for {
					p, err := sys.QueryPage(q, after, limit)
					if err != nil {
						t.Error(err)
						return
					}
					// The memoized encoding is the one of this page's rows.
					if got, want := p.AppendRows(nil, encodeRow), (&idm.Page{Rows: p.Rows}).AppendRows(nil, encodeRow); !bytes.Equal(got, want) {
						t.Errorf("limit %d: AppendRows gave %q, the page's rows encode to %q", limit, got, want)
						return
					}
					for _, row := range p.Rows {
						if row[0].OID <= last {
							t.Errorf("limit %d: OID %d not strictly after %d", limit, row[0].OID, last)
							return
						}
						last = row[0].OID
						seen[last] = true
					}
					if p.Next == nil {
						break
					}
					after = p.Next
				}
				for _, row := range base {
					if !seen[row[0].OID] {
						t.Errorf("limit %d round %d: base row %d lost", limit, round, row[0].OID)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !finished() {
			res, err := sys.Query(q)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Count() < len(base) || len(res.Items) != res.Count() {
				t.Errorf("Query: %d rows, %d items, base %d", res.Count(), len(res.Items), len(base))
				return
			}
			// A churn row may resolve to the placeholder when its source
			// is removed between evaluation and resolution; a base row
			// never may.
			resolved := 0
			for _, row := range res.Rows {
				if want, ok := basePaths[row[0].OID]; ok && row[0].Path == want {
					resolved++
				}
			}
			if resolved != len(base) {
				t.Errorf("Query resolved %d of %d base rows", resolved, len(base))
				return
			}
		}
	}()
	wg.Wait()
}

// TestQueryPageResolvesOnlyThePage pins the page-first contract with
// the two counters that describe it (both in the System registry, so on
// /debug/metrics): the first page of a 1000+-row result at limit 100
// resolves exactly 100 items and orders the result once; the identical
// request again resolves nothing and orders nothing; the next cursor
// page resolves 100 more; and a Query on the same entry resolves only
// what no page has touched yet.
func TestQueryPageResolvesOnlyThePage(t *testing.T) {
	d := idm.GenerateDataset(idm.DatasetConfig{Scale: 0.05, Seed: 42})
	sys, err := idm.OpenDataset(d, idm.Config{Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	const q = `"database"`
	var resolved, ordered int64
	step := func(what string, wantResolved, wantOrdered int64) {
		t.Helper()
		c := sys.Metrics().Snapshot().Counters
		if got := c["idm_items_resolved_total"] - resolved; got != wantResolved {
			t.Errorf("%s: resolved %d items, want %d", what, got, wantResolved)
		}
		if got := c["idm_results_ordered_total"] - ordered; got != wantOrdered {
			t.Errorf("%s: ordered %d results, want %d", what, got, wantOrdered)
		}
		resolved, ordered = c["idm_items_resolved_total"], c["idm_results_ordered_total"]
	}

	first, err := sys.QueryPage(q, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if first.Total < 1000 || len(first.Rows) != 100 || first.Stats.CacheHit {
		t.Fatalf("first page: total %d, %d rows, hit %v; need a cold 1000+-row result", first.Total, len(first.Rows), first.Stats.CacheHit)
	}
	step("first page", 100, 1)

	again, err := sys.QueryPage(q, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.CacheHit {
		t.Fatal("repeat of the first page missed the cache")
	}
	if !slices.EqualFunc(again.Rows, first.Rows, func(a, b idm.Row) bool { return slices.Equal(a, b) }) {
		t.Fatal("repeat of the first page returned different rows")
	}
	step("first page again", 0, 0)

	if _, err := sys.QueryPage(q, first.Next, 100); err != nil {
		t.Fatal(err)
	}
	step("second page", 100, 0)

	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	step("Query on the paged entry", int64(res.Count())-200, 0)
	if _, err := sys.Query(q); err != nil {
		t.Fatal(err)
	}
	step("Query again", 0, 0)

	srv := httptest.NewServer(obs.HandlerWith(sys.Metrics(), sys.QueryLog()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, name := range []string{"idm_items_resolved_total", "idm_results_ordered_total"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/debug/metrics does not show %s", name)
		}
	}
}

// encodeRow is a pure row encoder for Page.AppendRows.
func encodeRow(dst []byte, row idm.Row) []byte {
	for _, it := range row {
		dst = fmt.Appendf(dst, "%d %s;", it.OID, it.Path)
	}
	return append(dst, '\n')
}

// memDocs builds an in-memory dataspace over one file system of n
// documents matching "pagedoc", and returns both.
func memDocs(t *testing.T, n int) (*idm.System, *idm.FS) {
	t.Helper()
	fs := idm.NewFileSystem()
	fs.MkdirAll("/docs")
	for i := 0; i < n; i++ {
		fs.WriteFile(fmt.Sprintf("/docs/doc%03d.txt", i), []byte(fmt.Sprintf("doc %03d carries pagedoc", i)))
	}
	sys := idm.Open(idm.Config{Now: fixedNow})
	t.Cleanup(func() { sys.Close() })
	if err := sys.AddFileSystem("docs", fs); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	return sys, fs
}

// TestQueryPageEncodesOnce pins the encoding memo's cost: the first
// page encodes its rows once each, and the same page again resolves
// and encodes nothing (idm_items_resolved_total stays put) while
// returning the same bytes. A longer page from the same start encodes
// only its new rows.
func TestQueryPageEncodesOnce(t *testing.T) {
	sys, _ := memDocs(t, 30)
	const q = `"pagedoc"`
	calls := 0
	enc := func(dst []byte, row idm.Row) []byte {
		calls++
		return encodeRow(dst, row)
	}
	resolved := func() int64 { return sys.Metrics().Snapshot().Counters["idm_items_resolved_total"] }

	first, err := sys.QueryPage(q, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := first.AppendRows(nil, enc)
	if calls != 10 {
		t.Fatalf("first page: %d rows encoded, want 10", calls)
	}
	calls = 0
	before := resolved()
	again, err := sys.QueryPage(q, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.AppendRows(nil, enc); !bytes.Equal(got, want) {
		t.Fatalf("warm page encodes to %q, first time %q", got, want)
	}
	if !again.Stats.CacheHit || calls != 0 || resolved() != before {
		t.Fatalf("warm page: hit %v, %d rows encoded, %d items resolved; want a hit that does neither",
			again.Stats.CacheHit, calls, resolved()-before)
	}
	// A longer page over the same start encodes only the rows the first
	// page did not return.
	longer, err := sys.QueryPage(q, nil, 15)
	if err != nil {
		t.Fatal(err)
	}
	got := longer.AppendRows(nil, enc)
	if calls != 5 || !bytes.HasPrefix(got, want) || !bytes.Equal(got, (&idm.Page{Rows: longer.Rows}).AppendRows(nil, encodeRow)) {
		t.Fatalf("15-row page after the 10-row one: %d rows encoded (want 5), body %q", calls, got)
	}
}

// TestQueryPageEncodingRetiredByWrite pins the encoding memo's safety:
// it lives and dies with the cache entry. After a write that renames a
// returned row's file, the next page comes from a new entry and every
// one of its rows is encoded afresh — the encoder stamps a generation
// into each row, and no row of the earlier generation comes back — so
// the renamed path is there and the old one is not.
func TestQueryPageEncodingRetiredByWrite(t *testing.T) {
	sys, fs := memDocs(t, 12)
	const q = `"pagedoc"`
	gen := 0
	enc := func(dst []byte, row idm.Row) []byte {
		return encodeRow(fmt.Appendf(dst, "gen%d ", gen), row)
	}
	p, err := sys.QueryPage(q, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := string(p.AppendRows(nil, enc))
	if !strings.Contains(before, "/docs/doc001.txt") {
		t.Fatalf("setup: first page %q does not hold doc001", before)
	}

	if err := fs.Remove("/docs/doc001.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteFile("/docs/renamed.txt", []byte("doc 001 carries pagedoc")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	gen = 1
	p, err = sys.QueryPage(q, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.CacheHit {
		t.Fatal("page after the write was served from the old entry")
	}
	after := string(p.AppendRows(nil, enc))
	if n := strings.Count(after, "gen1 "); n != len(p.Rows) || strings.Contains(after, "gen0 ") {
		t.Fatalf("after the write, %d of %d rows freshly encoded: %q", n, len(p.Rows), after)
	}
	if strings.Contains(after, "/docs/doc001.txt") || !strings.Contains(after, "/docs/renamed.txt") {
		t.Fatalf("page after the rename does not show it: %q", after)
	}
}

// TestQueryPageWarmAllocs pins what a warm 100-row page costs the
// facade: QueryPage plus AppendRows into a reused buffer allocate a
// small constant, whatever the page size.
func TestQueryPageWarmAllocs(t *testing.T) {
	sys, _ := memDocs(t, 150)
	const q = `"pagedoc"`
	var buf []byte
	serve := func() {
		p, err := sys.QueryPage(q, nil, 100)
		if err != nil || len(p.Rows) != 100 {
			t.Fatalf("page: %v", err)
		}
		buf = p.AppendRows(buf[:0], encodeRow)
	}
	serve()
	// Two today: the Page and its Rows slice.
	const maxAllocs = 4
	if allocs := testing.AllocsPerRun(50, serve); allocs > maxAllocs {
		t.Errorf("warm 100-row page: %.0f allocations, want at most %d", allocs, maxAllocs)
	}
}
