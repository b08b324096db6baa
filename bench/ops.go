package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// kind is what one timed operation was.
type kind uint8

const (
	kQuery    kind = iota // first page of POST /query
	kPage                 // a later page of a cursor walk
	kWalk                 // a whole cursor walk, first page to last
	kIngest               // POST /sources: one fs source added and synced
	kDelete               // DELETE /sources/{id}
	kColdOpen             // first request to a tenant whose System is closed
	numKinds
)

var kindNames = [numKinds]string{"query", "page", "walk", "ingest", "delete", "cold_open"}

func (k kind) String() string { return kindNames[k] }

// family is the Table 4 template family a query belongs to.
type family uint8

const (
	famKW family = iota
	famPhrase
	famAttr
	famPath
	famUnion
	famJoin
	numFamilies
)

var familyNames = [numFamilies]string{"kw", "phrase", "attr", "path", "union", "join"}

func (f family) String() string { return familyNames[f] }

// pageLimit is the page size every query asks for.
const pageLimit = 100

// filesPerSource and fileBytes shape one ingested fs source.
const (
	filesPerSource = 16
	fileBytes      = 2048
)

// query is one iQL text with the answer the reference System gives.
type query struct {
	text string
	fam  family
	// want is the reference row count; -1 leaves total unchecked.
	want int
	// body is the pre-encoded first-page request.
	body []byte
}

func newQuery(text string, fam family, want int) *query {
	return &query{text: text, fam: fam, want: want, body: mustJSON(map[string]any{"q": text, "limit": pageLimit})}
}

// source is one ingestable fs source: sixteen ~2 KB text files that all
// carry one marker word no other source has.
type source struct {
	id     string
	marker string
	files  map[string]string
	bytes  int
	body   []byte
	// tenant is set when the daemon acknowledges the add.
	tenant int
}

// op is one operation of a workload's stream.
type op struct {
	kind   kind
	tenant int
	q      *query
	src    *source
	// marker turns a kQuery into a marker probe resolved when it runs:
	// the last acknowledged marker of tenant owner, which must return
	// every file of its source on its own tenant and nothing on any
	// other.
	marker bool
	owner  int
	// evict closes the tenant (untimed) before a kColdOpen; without it
	// the daemon's own LRU is expected to have closed it.
	evict bool
	// quiet runs and checks the op but records no sample: a request made
	// only to put the daemon in a known state.
	quiet bool
	// then runs back to back on the same connection after the op: the
	// warm queries of one tenant_churn visit.
	then []op
}

// sample is one timed operation.
type sample struct {
	kind kind
	fam  family
	lat  time.Duration
	// late is how long after its due time the generator sent it.
	late time.Duration
	// at is when it completed, from the start of its phase.
	at time.Duration
}

// recorder collects one worker's samples and correctness counts; each
// worker owns one, so nothing here is shared.
type recorder struct {
	samples   []sample
	attempted int
	failed    int
	respBytes int64
	rowsTotal int64 // sum of `total` over query+page responses
	rowsSent  int64 // rows actually returned by them
	notes     []string
	// buf holds the last response body; reused across exchanges.
	buf bytes.Buffer
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// stamp marks the samples recorded since index from as completed now.
func (r *recorder) stamp(from int, begin time.Time) {
	at := time.Since(begin)
	for i := from; i < len(r.samples); i++ {
		r.samples[i].at = at
	}
}

func mergeRecorders(rs ...*recorder) *recorder {
	out := &recorder{}
	for _, r := range rs {
		if r == nil {
			continue
		}
		out.samples = append(out.samples, r.samples...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.respBytes += r.respBytes
		out.rowsTotal += r.rowsTotal
		out.rowsSent += r.rowsSent
		out.notes = append(out.notes, r.notes...)
	}
	return out
}

// lats returns the latencies of the samples pick accepts.
func (r *recorder) lats(pick func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, s := range r.samples {
		if pick(s) {
			out = append(out, s.lat)
		}
	}
	return out
}

func ofKind(k kind) func(sample) bool { return func(s sample) bool { return s.kind == k } }

// ackTable tracks which ingested sources the daemon acknowledged, so
// marker probes and the post-crash check know what must be readable.
type ackTable struct {
	mu   sync.Mutex
	live map[string]*source // acknowledged and not yet deleted, by id
	last []atomic.Pointer[source]
}

func newAckTable(tenants int) *ackTable {
	return &ackTable{live: map[string]*source{}, last: make([]atomic.Pointer[source], tenants)}
}

func (a *ackTable) added(tenant int, s *source) {
	s.tenant = tenant
	a.mu.Lock()
	a.live[s.id] = s
	a.mu.Unlock()
	a.last[tenant].Store(s)
}

func (a *ackTable) deleted(s *source) {
	a.mu.Lock()
	delete(a.live, s.id)
	a.mu.Unlock()
}

// doer performs one HTTP exchange, over a socket for the daemon or
// straight into ServeHTTP for the in-process twin, and leaves the
// response body in into.
type doer func(method, path string, body []byte, into *bytes.Buffer) (status int, err error)

// httpDoer talks to a live daemon over one keep-alive connection pool.
func httpDoer(base string, hc *http.Client) doer {
	return func(method, path string, body []byte, into *bytes.Buffer) (int, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return 0, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		_, err = into.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, err
	}
}

// page is what the benchmark reads of one query response.
type page struct {
	total int
	rows  int
	next  string
}

var (
	totalKey  = []byte(`"total":`)
	cursorKey = []byte(`"next_cursor":"`)
	rowStart  = []byte(`[{"oid":`)
	oidKey    = []byte(`{"oid":`)
)

// scanPage reads total, the row count and the cursor out of a query
// response by looking for their keys instead of decoding the ~20 KB of
// rows: a full decode per response cost the generator more CPU than
// the daemon spent answering, on a machine where they share two cores.
// A JSON string cannot hold an unescaped quote, so the quoted keys match
// only where the encoder wrote them as keys.
func scanPage(resp []byte) (page, bool) {
	var p page
	i := bytes.LastIndex(resp, totalKey)
	if i < 0 {
		return p, false
	}
	n, ok := leadingUint(resp[i+len(totalKey):])
	if !ok {
		return p, false
	}
	p.total = int(n)
	p.rows = bytes.Count(resp, rowStart)
	if j := bytes.LastIndex(resp, cursorKey); j >= 0 {
		rest := resp[j+len(cursorKey):]
		end := bytes.IndexByte(rest, '"')
		if end < 0 {
			return p, false
		}
		p.next = string(rest[:end]) // cursors are unpadded URL-base64: nothing to unescape
	}
	return p, true
}

func leadingUint(b []byte) (uint64, bool) {
	var n uint64
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	return n, i > 0
}

// eachRowKey calls fn with one key per row of a query response: the
// row's OID, or for a join row its two OIDs packed into one word (the
// benchmark's datasets hold thousands of views, far below 2^32).
func eachRowKey(resp []byte, fn func(key uint64)) {
	for {
		i := bytes.Index(resp, rowStart)
		if i < 0 {
			return
		}
		resp = resp[i+1:] // now at the row's first {"oid":
		end := bytes.Index(resp, rowStart)
		row := resp
		if end >= 0 {
			row = resp[:end]
		}
		var key uint64
		for {
			j := bytes.Index(row, oidKey)
			if j < 0 {
				break
			}
			row = row[j+len(oidKey):]
			oid, _ := leadingUint(row)
			key = key<<32 ^ oid
		}
		fn(key)
	}
}

// api runs ops against one doer, timing each exchange and checking
// every answer. tenants maps the op's tenant index to its name.
type api struct {
	do      doer
	tenants []string
	acks    *ackTable
}

func (a *api) path(tenant int, rest string) string {
	return "/v1/t/" + a.tenants[tenant] + rest
}

// exchange times one request from start (the due time in an open loop)
// until the response body is fully read, and counts it.
func (a *api) exchange(r *recorder, start time.Time, method, path string, body []byte) (time.Duration, []byte, bool) {
	r.buf.Reset()
	status, err := a.do(method, path, body, &r.buf)
	lat := time.Since(start)
	resp := r.buf.Bytes() // valid until r's next exchange
	r.attempted++
	r.respBytes += int64(len(resp))
	if err != nil || status != http.StatusOK {
		r.fail("%s %s: status %d err %v body %.120s", method, path, status, err, resp)
		return lat, resp, false
	}
	return lat, resp, true
}

// run executes o and its follow-ups. due is when the op was scheduled;
// sent is when the generator got to it (equal in a closed loop).
func (a *api) run(o *op, due, sent time.Time, r *recorder) {
	a.one(o, due, sent.Sub(due), r)
	for i := range o.then {
		a.one(&o.then[i], time.Now(), 0, r)
	}
}

func (a *api) one(o *op, start time.Time, late time.Duration, r *recorder) {
	if o.quiet {
		defer func(n int) { r.samples = r.samples[:n] }(len(r.samples))
	}
	switch o.kind {
	case kQuery:
		q := o.q
		if o.marker {
			if q = a.markerQuery(o); q == nil {
				return // nothing acknowledged yet
			}
		}
		lat, resp, ok := a.exchange(r, start, "POST", a.path(o.tenant, "/query"), q.body)
		if ok {
			a.checkPage(r, q, resp, true)
		}
		r.samples = append(r.samples, sample{kind: kQuery, fam: q.fam, lat: lat, late: late})
	case kWalk:
		a.walk(o, start, late, r, nil)
	case kIngest:
		lat, _, ok := a.exchange(r, start, "POST", a.path(o.tenant, "/sources"), o.src.body)
		if ok && a.acks != nil {
			a.acks.added(o.tenant, o.src)
		}
		r.samples = append(r.samples, sample{kind: kIngest, lat: lat, late: late})
	case kDelete:
		lat, _, ok := a.exchange(r, start, "DELETE", a.path(o.tenant, "/sources/"+o.src.id), nil)
		if ok && a.acks != nil {
			a.acks.deleted(o.src)
		}
		r.samples = append(r.samples, sample{kind: kDelete, lat: lat, late: late})
	case kColdOpen:
		if o.evict {
			r.buf.Reset()
			a.do("POST", a.path(o.tenant, "/evict"), nil, &r.buf)
			start = time.Now()
		}
		lat, resp, ok := a.exchange(r, start, "GET", a.path(o.tenant, "/digest"), nil)
		if ok && o.q != nil {
			var d struct {
				Views int `json:"views"`
			}
			if json.Unmarshal(resp, &d) != nil || d.Views != o.q.want {
				r.fail("digest of tenant %d: views %d, reference %d", o.tenant, d.Views, o.q.want)
			}
		}
		r.samples = append(r.samples, sample{kind: kColdOpen, lat: lat, late: late})
	}
}

// markerQuery resolves a marker probe against what has been
// acknowledged so far.
func (a *api) markerQuery(o *op) *query {
	s := a.acks.last[o.owner].Load()
	if s == nil {
		return nil
	}
	want := 0
	if o.owner == o.tenant {
		want = filesPerSource
	}
	return newQuery(strconv.Quote(s.marker), famKW, want)
}

// checkPage verifies one page against the reference and returns what
// it read of it.
func (a *api) checkPage(r *recorder, q *query, resp []byte, first bool) (page, bool) {
	p, ok := scanPage(resp)
	if !ok {
		r.fail("query %q: response has no total: %.120s", q.text, resp)
		return p, false
	}
	r.rowsTotal += int64(p.total)
	r.rowsSent += int64(p.rows)
	if q.want >= 0 && p.total != q.want {
		r.fail("query %q: total %d, reference %d", q.text, p.total, q.want)
	}
	if wantRows := min(p.total, pageLimit); first && p.rows != wantRows {
		r.fail("query %q: first page has %d rows, want %d", q.text, p.rows, wantRows)
	}
	return p, true
}

// walk pages through o.q's whole result, checking that every row comes
// back exactly once. onPage, when set, sees each page's request body
// and latency (the ladder replays them at the other depths).
func (a *api) walk(o *op, start time.Time, late time.Duration, r *recorder, onPage func(body []byte, lat time.Duration)) {
	seen := make(map[uint64]struct{}, max(o.q.want, 0))
	body := o.q.body
	pageStart := start
	path := a.path(o.tenant, "/query")
	for n := 0; ; n++ {
		lat, resp, ok := a.exchange(r, pageStart, "POST", path, body)
		if onPage != nil {
			onPage(body, lat)
		}
		if !ok {
			break
		}
		p, ok := a.checkPage(r, o.q, resp, n == 0)
		if !ok {
			break
		}
		eachRowKey(resp, func(key uint64) {
			if _, dup := seen[key]; dup {
				r.fail("walk %q: row %#x returned twice", o.q.text, key)
			}
			seen[key] = struct{}{}
		})
		if p.next == "" {
			if len(seen) != p.total {
				r.fail("walk %q: saw %d distinct rows, total %d", o.q.text, len(seen), p.total)
			}
			break
		}
		body = mustJSON(map[string]any{"q": o.q.text, "limit": pageLimit, "cursor": p.next})
		pageStart = time.Now()
	}
	r.samples = append(r.samples, sample{kind: kWalk, fam: o.q.fam, lat: time.Since(start), late: late})
}
