package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer builds a Server over a temp root and a real HTTP
// listener. Zero-value Config fields take the package defaults; the
// caller usually sets MaxOpenTenants/Quota/Tokens.
func newTestServer(t *testing.T, cfg Config) (*Server, *tclient) {
	t.Helper()
	if cfg.Root == "" {
		cfg.Root = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	hc := ts.Client()
	hc.Timeout = 60 * time.Second
	return srv, &tclient{t: t, base: ts.URL, tokens: cfg.Tokens, hc: hc}
}

// tclient is the harness's API client.
type tclient struct {
	t      *testing.T
	base   string
	tokens map[string]string
	hc     *http.Client
}

// do issues one request; goroutine-safe (no Fatal).
func (c *tclient) do(method, tenant, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+"/v1/t/"+tenant+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tok := c.tokens[tenant]; tok != "" {
		req.Header.Set("Authorization", "Bearer "+tok)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// must is do + Fatal on transport error or unexpected status. Main
// goroutine only.
func (c *tclient) must(method, tenant, path string, body any, want int) []byte {
	c.t.Helper()
	code, b, err := c.do(method, tenant, path, body)
	if err != nil {
		c.t.Fatalf("%s %s%s: %v", method, tenant, path, err)
	}
	if code != want {
		c.t.Fatalf("%s %s%s: status %d (want %d): %s", method, tenant, path, code, want, b)
	}
	return b
}

// retry429 is do with bounded retry on backpressure. Goroutine-safe.
func (c *tclient) retry429(method, tenant, path string, body any) (int, []byte, error) {
	for attempt := 0; ; attempt++ {
		code, b, err := c.do(method, tenant, path, body)
		if err != nil || code != http.StatusTooManyRequests || attempt >= 100 {
			return code, b, err
		}
		time.Sleep(time.Duration(5+attempt) * time.Millisecond)
	}
}

// seedTenant registers an fs source with n files, each holding the
// tenant's marker word, and syncs.
func seedTenant(c *tclient, tenant, marker string, n int) error {
	files := map[string]string{}
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("/docs/%s-f%02d.txt", tenant, i)] =
			fmt.Sprintf("document %02d of %s carrying %s", i, tenant, marker)
	}
	code, b, err := c.retry429("POST", tenant, "/sources",
		map[string]any{"id": "docs", "files": files, "sync": true})
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("seed %s: status %d: %s", tenant, code, b)
	}
	return nil
}

// query runs one paginated query call.
func (c *tclient) query(tenant, q, cursor string, limit int) (queryResponse, int, error) {
	body := map[string]any{"q": q}
	if cursor != "" {
		body["cursor"] = cursor
	}
	if limit > 0 {
		body["limit"] = limit
	}
	code, b, err := c.retry429("POST", tenant, "/query", body)
	var resp queryResponse
	if err != nil || code != http.StatusOK {
		return resp, code, err
	}
	return resp, code, json.Unmarshal(b, &resp)
}

// paginateAll walks a query to exhaustion and returns all rows in page
// order.
func (c *tclient) paginateAll(tenant, q string, limit int) ([][]itemJSON, error) {
	var all [][]itemJSON
	cursor := ""
	for page := 0; ; page++ {
		if page > 10000 {
			return nil, fmt.Errorf("pagination of %q did not terminate", q)
		}
		resp, code, err := c.query(tenant, q, cursor, limit)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("query %q page %d: status %d", q, page, code)
		}
		all = append(all, resp.Rows...)
		if resp.NextCursor == "" {
			return all, nil
		}
		cursor = resp.NextCursor
	}
}

// digest fetches a tenant's durable-state digest.
func (c *tclient) digest(tenant string) (string, error) {
	code, b, err := c.retry429("GET", tenant, "/digest", nil)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("digest %s: status %d: %s", tenant, code, b)
	}
	var out struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return "", err
	}
	return out.Digest, nil
}

// --- unit/integration tests ------------------------------------------

func TestTenantNameValidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	for _, bad := range []string{"bad.name", "-lead", "a b", strings.Repeat("x", 80)} {
		code, _, err := c.do("POST", bad, "/query", map[string]any{"q": `"x"`})
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest {
			t.Errorf("tenant %q: status %d, want 400", bad, code)
		}
	}
	// A valid name is accepted (empty dataspace answers zero rows).
	resp, code, err := c.query("good-name_1", `"x"`, "", 0)
	if err != nil || code != http.StatusOK {
		t.Fatalf("valid tenant rejected: %d %v", code, err)
	}
	if resp.Total != 0 {
		t.Errorf("fresh tenant has %d rows", resp.Total)
	}
}

func TestBearerAuth(t *testing.T) {
	tokens := map[string]string{"alice": "s3cret"}
	_, c := newTestServer(t, Config{Tokens: tokens})

	// No token.
	noAuth := &tclient{t: t, base: c.base, tokens: nil, hc: c.hc}
	code, _, err := noAuth.do("GET", "alice", "/sources", nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusUnauthorized {
		t.Errorf("missing token: status %d, want 401", code)
	}
	// Wrong token.
	wrong := &tclient{t: t, base: c.base, tokens: map[string]string{"alice": "wrong"}, hc: c.hc}
	if code, _, _ := wrong.do("GET", "alice", "/sources", nil); code != http.StatusUnauthorized {
		t.Errorf("wrong token: status %d, want 401", code)
	}
	// Unknown tenant, any token.
	mallory := &tclient{t: t, base: c.base, tokens: map[string]string{"mallory": "s3cret"}, hc: c.hc}
	if code, _, _ := mallory.do("GET", "mallory", "/sources", nil); code != http.StatusUnauthorized {
		t.Errorf("unknown tenant: status %d, want 401", code)
	}
	// Right token.
	c.must("GET", "alice", "/sources", nil, http.StatusOK)
}

func TestSourceQuota429(t *testing.T) {
	_, c := newTestServer(t, Config{Quota: Quota{MaxSources: 2}})
	c.must("POST", "a", "/sources", map[string]any{"id": "s1", "files": map[string]string{"/f": "x"}}, http.StatusOK)
	c.must("POST", "a", "/sources", map[string]any{"id": "s2", "files": map[string]string{"/f": "x"}}, http.StatusOK)
	code, b, err := c.do("POST", "a", "/sources", map[string]any{"id": "s3", "files": map[string]string{"/f": "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota add: status %d, want 429: %s", code, b)
	}
	// Duplicate id is a conflict, not a quota trip.
	code, _, _ = c.do("POST", "a", "/sources", map[string]any{"id": "s1", "files": map[string]string{"/f": "x"}})
	if code != http.StatusConflict {
		t.Errorf("duplicate source id: status %d, want 409", code)
	}
	// Removing frees quota.
	c.must("DELETE", "a", "/sources/s2", nil, http.StatusOK)
	c.must("POST", "a", "/sources", map[string]any{"id": "s3", "files": map[string]string{"/f": "x"}}, http.StatusOK)
}

// TestQuerySlotThrottle pins per-tenant admission control: a slow
// client streaming its request body holds one of the tenant's query
// slots, so with MaxConcurrentQueries=1 a concurrent query gets 429 +
// Retry-After — and other tenants are unaffected.
func TestQuerySlotThrottle(t *testing.T) {
	srv, c := newTestServer(t, Config{Quota: Quota{MaxConcurrentQueries: 1}})
	if err := seedTenant(c, "slow", "slowmark", 2); err != nil {
		t.Fatal(err)
	}
	if err := seedTenant(c, "fast", "fastmark", 2); err != nil {
		t.Fatal(err)
	}

	// Slow client: the request body arrives... eventually. Cleanups run
	// last-registered first, so a failure below closes the pipe before
	// the test server's Close waits for the request to finish.
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	req, err := http.NewRequest("POST", c.base+"/v1/t/slow/query", pr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := c.hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("slow request finished with %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	// Give the slow request time to occupy the slot. Only then query:
	// a query sent earlier could take the slot first and turn the slow
	// request away instead.
	waitFor(t, 5*time.Second, func() bool {
		return querySlotsHeld(srv, "slow") == 1
	}, "slow request never took the query slot")
	code, _, err := c.do("POST", "slow", "/query", map[string]any{"q": `"slowmark"`})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusTooManyRequests {
		t.Fatalf("concurrent query while the slot was held: status %d, want 429", code)
	}

	// The other tenant keeps its own slots.
	if _, code, err := c.query("fast", `"fastmark"`, "", 0); err != nil || code != http.StatusOK {
		t.Fatalf("other tenant throttled too: %d %v", code, err)
	}

	// Completing the body releases the slot.
	if _, err := pw.Write([]byte(`{"q":"\"slowmark\""}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, code, err := c.query("slow", `"slowmark"`, "", 0); err != nil || code != http.StatusOK {
		t.Fatalf("slot not released: %d %v", code, err)
	}
}

// querySlotsHeld reports how many of tenant's query slots are taken.
func querySlotsHeld(srv *Server, tenant string) int {
	srv.tenants.mu.Lock()
	defer srv.tenants.mu.Unlock()
	e, ok := srv.tenants.open[tenant]
	if !ok {
		return 0
	}
	return len(e.qsem)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestCursorPagination pins the cursor contract: pages are disjoint,
// keys strictly increase across pages, the union is the full result,
// and mutation between pages neither duplicates nor loses rows that
// existed untouched throughout.
func TestCursorPagination(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if err := seedTenant(c, "pag", "pagedoc", 20); err != nil {
		t.Fatal(err)
	}

	full, err := c.paginateAll("pag", `"pagedoc"`, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 20 {
		t.Fatalf("full query returned %d rows, want 20", len(full))
	}

	// Page through at 7/page, mutating between pages: a second source
	// with more matching docs lands mid-pagination.
	var paged [][]itemJSON
	cursor := ""
	page := 0
	for {
		resp, code, err := c.query("pag", `"pagedoc"`, cursor, 7)
		if err != nil || code != http.StatusOK {
			t.Fatalf("page %d: %d %v", page, code, err)
		}
		if len(resp.Rows) > 7 {
			t.Fatalf("page %d: %d rows over limit", page, len(resp.Rows))
		}
		paged = append(paged, resp.Rows...)
		if page == 0 {
			extra := map[string]string{}
			for i := 0; i < 5; i++ {
				extra[fmt.Sprintf("/late/l%02d.txt", i)] = fmt.Sprintf("late pagedoc %02d", i)
			}
			c.must("POST", "pag", "/sources",
				map[string]any{"id": "late", "files": extra, "sync": true}, http.StatusOK)
		}
		if resp.NextCursor == "" {
			break
		}
		cursor = resp.NextCursor
		page++
	}

	// Keys strictly increase → no duplicates, stable order.
	seen := map[uint64]bool{}
	last := uint64(0)
	for i, row := range paged {
		oid := row[0].OID
		if seen[oid] {
			t.Fatalf("row %d: OID %d returned twice", i, oid)
		}
		seen[oid] = true
		if oid <= last {
			t.Fatalf("row %d: OID %d not strictly increasing after %d", i, oid, last)
		}
		last = oid
	}
	// Every original row survived the interleaved mutation.
	for _, row := range full {
		if !seen[row[0].OID] {
			t.Errorf("original row OID %d (%s) lost during mutation-interleaved pagination",
				row[0].OID, row[0].Path)
		}
	}
	if len(paged) < 20 {
		t.Fatalf("paged union has %d rows, want >= 20", len(paged))
	}

	// Cursor misuse is a clean 400.
	resp, _, err := c.query("pag", `"pagedoc"`, "", 7)
	if err != nil || resp.NextCursor == "" {
		t.Fatal("no cursor to misuse")
	}
	code, _, _ := c.do("POST", "pag", "/query", map[string]any{"q": `"different"`, "cursor": resp.NextCursor})
	if code != http.StatusBadRequest {
		t.Errorf("cursor on different query: status %d, want 400", code)
	}
	code, _, _ = c.do("POST", "pag", "/query", map[string]any{"q": `"pagedoc"`, "cursor": "!!garbage!!"})
	if code != http.StatusBadRequest {
		t.Errorf("garbage cursor: status %d, want 400", code)
	}
}

// TestEvictionDigestStability pins eviction/reopen correctness with a
// cap of 1: every access of the other tenant evicts the first, and the
// digest must be identical across each evict/reopen cycle.
func TestEvictionDigestStability(t *testing.T) {
	srv, c := newTestServer(t, Config{MaxOpenTenants: 1})
	if err := seedTenant(c, "ta", "amark", 5); err != nil {
		t.Fatal(err)
	}
	da, err := c.digest("ta")
	if err != nil {
		t.Fatal(err)
	}
	if da == "" {
		t.Fatal("empty digest for a durable tenant")
	}
	if err := seedTenant(c, "tb", "bmark", 5); err != nil {
		t.Fatal(err)
	}
	db, err := c.digest("tb")
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		got, err := c.digest("ta") // evicts tb, reopens ta
		if err != nil {
			t.Fatal(err)
		}
		if got != da {
			t.Fatalf("cycle %d: ta digest changed across eviction: %s != %s", i, got, da)
		}
		got, err = c.digest("tb") // evicts ta, reopens tb
		if err != nil {
			t.Fatal(err)
		}
		if got != db {
			t.Fatalf("cycle %d: tb digest changed across eviction: %s != %s", i, got, db)
		}
	}
	if n := srv.OpenTenants(); n > 1 {
		t.Errorf("open tenants %d exceeds cap 1 at rest", n)
	}
	if v := srv.Metrics().Snapshot().Counters["srv_tenant_evictions_total"]; v == 0 {
		t.Error("no evictions recorded despite cap 1")
	}
}

// TestCursorResumesAcrossEviction: a cursor minted before its tenant
// was evicted resumes on the reopened tenant with exactly the rows an
// uninterrupted walk would have returned.
func TestCursorResumesAcrossEviction(t *testing.T) {
	_, c := newTestServer(t, Config{MaxOpenTenants: 1})
	if err := seedTenant(c, "ca", "camark", 12); err != nil {
		t.Fatal(err)
	}
	reference, err := c.paginateAll("ca", `"camark"`, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(reference) != 12 {
		t.Fatalf("reference walk: %d rows, want 12", len(reference))
	}

	resp, code, err := c.query("ca", `"camark"`, "", 5)
	if err != nil || code != http.StatusOK || resp.NextCursor == "" {
		t.Fatalf("page 1: %d %v", code, err)
	}
	got := resp.Rows

	// Evict ca by touching another tenant under cap 1.
	if err := seedTenant(c, "cb", "cbmark", 2); err != nil {
		t.Fatal(err)
	}

	cursor := resp.NextCursor
	for cursor != "" {
		resp, code, err := c.query("ca", `"camark"`, cursor, 5)
		if err != nil || code != http.StatusOK {
			t.Fatalf("resumed page: %d %v", code, err)
		}
		got = append(got, resp.Rows...)
		cursor = resp.NextCursor
	}
	if len(got) != len(reference) {
		t.Fatalf("resumed walk: %d rows, reference %d", len(got), len(reference))
	}
	for i := range got {
		if got[i][0].OID != reference[i][0].OID {
			t.Fatalf("row %d diverged after eviction: OID %d != %d", i, got[i][0].OID, reference[i][0].OID)
		}
	}
}

// TestTenantIsolation: two tenants with adjacent data; each sees only
// its own rows, and a query for the other tenant's marker is empty.
func TestTenantIsolation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if err := seedTenant(c, "iso1", "onlyone", 4); err != nil {
		t.Fatal(err)
	}
	if err := seedTenant(c, "iso2", "onlytwo", 4); err != nil {
		t.Fatal(err)
	}
	r1, _, err := c.query("iso1", `"onlytwo"`, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Total != 0 {
		t.Fatalf("tenant iso1 sees %d of iso2's rows", r1.Total)
	}
	r2, _, err := c.query("iso2", `"onlytwo"`, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Total != 4 {
		t.Fatalf("tenant iso2 sees %d of its own rows, want 4", r2.Total)
	}
	for _, row := range r2.Rows {
		if !strings.Contains(row[0].Path, "iso2") {
			t.Errorf("foreign row leaked into iso2: %s", row[0].Path)
		}
	}
}

func TestHealthAndDebugSurface(t *testing.T) {
	_, c := newTestServer(t, Config{})
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if err := seedTenant(c, "dbg", "dbgmark", 40); err != nil {
		t.Fatal(err)
	}
	prom, err := c.hc.Get(c.base + "/debug/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer prom.Body.Close()
	b, _ := io.ReadAll(prom.Body)
	for _, series := range []string{"srv_requests_total", "srv_tenants_open", "srv_tenant_opens_total", "srv_tenant_dbg_requests_total"} {
		if !strings.Contains(string(b), series) {
			t.Errorf("prom exposition missing %s", series)
		}
	}

	// Every response, a /query page or an error, is one body under its
	// Content-Length, never chunked (net/http chunks a body it has to
	// flush before the handler returns: one over 2 KB when unsized).
	for _, body := range []string{`{"q":"\"dbgmark\""}`, `{"q":""}`} {
		resp, err := c.hc.Post(c.base+"/v1/t/dbg/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.ContentLength != int64(len(b)) || len(resp.TransferEncoding) > 0 {
			t.Errorf("%s: status %d, Content-Length %d, transfer encoding %v, body %d bytes",
				body, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(b))
		}
	}
}

// TestCheckpointAndDatasetSource covers the remaining endpoints: a
// dataset source indexes the synthetic paper dataspace, checkpoint
// compacts and reports the digest.
func TestCheckpointAndDatasetSource(t *testing.T) {
	_, c := newTestServer(t, Config{})
	c.must("POST", "ds", "/sources",
		map[string]any{"type": "dataset", "scale": 0.002, "seed": 7, "sync": true}, http.StatusOK)
	resp, code, err := c.query("ds", `//*`, "", 50)
	if err != nil || code != http.StatusOK {
		t.Fatalf("dataset query: %d %v", code, err)
	}
	if resp.Total == 0 {
		t.Fatal("dataset source indexed no views")
	}
	b := c.must("POST", "ds", "/checkpoint", map[string]any{}, http.StatusOK)
	var out struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(b, &out); err != nil || out.Digest == "" {
		t.Fatalf("checkpoint digest: %q err %v", out.Digest, err)
	}
	d, err := c.digest("ds")
	if err != nil {
		t.Fatal(err)
	}
	if d != out.Digest {
		t.Fatalf("digest after checkpoint %s != checkpoint digest %s", d, out.Digest)
	}
}

// TestServeClosesStalledConnections pins the daemon's socket bounds: a
// client that sends half a request line, or goes quiet on a keep-alive
// connection after a response, is disconnected instead of holding a
// goroutine and a file descriptor forever.
func TestServeClosesStalledConnections(t *testing.T) {
	srv, err := New(Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.readHeaderTimeout = 100 * time.Millisecond
	srv.idleTimeout = 100 * time.Millisecond
	addr, shutdown, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	// closed reads from conn until the server hangs up; a read that
	// outlives the deadline means the connection was kept.
	closed := func(conn net.Conn) error {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := io.Copy(io.Discard, conn)
		return err
	}

	half, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer half.Close()
	if _, err := half.Write([]byte("GET /heal")); err != nil {
		t.Fatal(err)
	}
	if err := closed(half); err != nil {
		t.Fatalf("half-sent request line: connection not closed: %v", err)
	}

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := idle.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(idle), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if err := closed(idle); err != nil {
		t.Fatalf("idle keep-alive connection not closed: %v", err)
	}
}
