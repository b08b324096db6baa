package idm

import (
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/iql"
)

// cachedResult is the one shape a query answer takes between the engine
// and the facade's callers, and what the query cache holds: the engine's
// OID rows as evaluated, a key order over them computed once, and a
// per-row memo of catalog-resolved items filled on first touch, and a
// per-row memo of their encoded bytes (Page.AppendRows). Resource views
// are lazy (§2 of the paper: a component is computed when somebody asks
// for it); so is their resolution and encoding here — a page resolves
// and encodes the rows it returns and nothing else, and a row is
// resolved and encoded at most once for as long as the entry lives
// (two pages racing to encode the same new row may both do so; the
// memo keeps one).
type cachedResult struct {
	// r is the engine's answer; immutable.
	r *iql.Result

	mu sync.Mutex
	// rows memoizes resolved rows, aligned with r.Rows; nil until
	// touched.
	rows []Row
	// order lists row indexes in ascending key order once ordered is
	// set; it stays nil when r.Rows already ascends (single-column
	// results leave the engine that way).
	order   []int32
	ordered bool
	// full is the fully resolved Result Query hands out.
	full *Result
	// enc memoizes encoded rows by key order position: the row at
	// position pos encodes to encBuf[enc[pos].off:enc[pos].end], an
	// empty span until encoded. enc reaches only as far as pages have;
	// encBuf only grows, so a span stays valid for the entry's lifetime.
	enc    []encSpan
	encBuf []byte
}

type encSpan struct{ off, end int }

func (s *System) newCachedResult(r *iql.Result) *cachedResult {
	c := &cachedResult{r: r}
	if c.stale() {
		s.met.staleQueries.Inc()
	}
	return c
}

// stale reports that a source was degraded when the query ran.
func (c *cachedResult) stale() bool { return len(c.r.Plan.StaleSources) > 0 }

// ensureOrder establishes the key order: a row's key is its OIDs in
// column order, and keys compare lexicographically, a shorter key before
// a longer one it prefixes (slices.Compare). Caller holds c.mu.
func (c *cachedResult) ensureOrder(s *System) {
	if c.ordered {
		return
	}
	c.ordered = true
	s.met.resultsOrdered.Inc()
	rows := c.r.Rows
	if slices.IsSortedFunc(rows, slices.Compare[[]OID]) {
		return
	}
	c.order = make([]int32, len(rows))
	for i := range c.order {
		c.order[i] = int32(i)
	}
	slices.SortFunc(c.order, func(a, b int32) int { return slices.Compare(rows[a], rows[b]) })
}

// at maps a position in key order to an index into r.Rows. Caller holds
// c.mu and has called ensureOrder.
func (c *cachedResult) at(pos int) int {
	if c.order == nil {
		return pos
	}
	return int(c.order[pos])
}

// resolve returns row i resolved against the catalog, from the memo
// when it was touched before. Caller holds c.mu.
func (c *cachedResult) resolve(s *System, i int, rs *resolver) Row {
	if c.rows == nil {
		c.rows = make([]Row, len(c.r.Rows))
	}
	if c.rows[i] == nil {
		row := make(Row, len(c.r.Rows[i]))
		for j, oid := range c.r.Rows[i] {
			row[j] = rs.item(oid)
		}
		c.rows[i] = row
		s.met.itemsResolved.Add(int64(len(row)))
	}
	return c.rows[i]
}

// page returns up to limit rows (all of them when limit <= 0) strictly
// after the key `after` in key order, the key order position of the
// first, and the key of the last one when more follow.
func (c *cachedResult) page(s *System, after []OID, limit int) (rows []Row, start int, next []OID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureOrder(s)
	n := len(c.r.Rows)
	if len(after) > 0 {
		start = sort.Search(n, func(pos int) bool {
			return slices.Compare(c.r.Rows[c.at(pos)], after) > 0
		})
	}
	end := n
	if limit > 0 && limit < n-start {
		end = start + limit
	}
	rs := resolver{s: s}
	rows = make([]Row, 0, end-start)
	for pos := start; pos < end; pos++ {
		rows = append(rows, c.resolve(s, c.at(pos), &rs))
	}
	if end < n && end > start {
		next = c.r.Rows[c.at(end-1)]
	}
	return rows, start, next
}

// result returns the fully resolved Result, in the engine's row order,
// building it on first use.
func (c *cachedResult) result(s *System) *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.full != nil {
		return c.full
	}
	rs := resolver{s: s}
	for i := range c.r.Rows {
		c.resolve(s, i, &rs)
	}
	// Items is the distinct first column in ascending OID order, which
	// is the order its first occurrences take in key order.
	c.ensureOrder(s)
	var items []Item
	for pos := range c.rows {
		row := c.rows[c.at(pos)]
		if len(row) > 0 && (len(items) == 0 || items[len(items)-1].OID != row[0].OID) {
			items = append(items, row[0])
		}
	}
	r := c.r
	c.full = &Result{
		Columns:       r.Columns,
		Rows:          c.rows,
		Items:         items,
		Plan:          r.Plan.String(),
		Intermediates: int(r.Plan.Intermediates),
		Stale:         c.stale(),
		StaleSources:  r.Plan.StaleSources,
		Stats:         r.Stats,
	}
	return c.full
}

// Page is one slice of a query result in key order (see QueryPage).
type Page struct {
	// Columns names the row entries, as in Result.
	Columns []string
	// Rows holds the page's rows, ascending by key. Shared with the
	// query cache; treat as read-only.
	Rows []Row
	// Total is the cardinality of the whole result at this evaluation.
	Total int
	// Next is the key of the last row in Rows when more rows follow it,
	// nil when the page reaches the end of the result: pass it back as
	// `after` to continue. Read-only.
	Next []OID
	// Stale is as in Result.
	Stale bool
	// Stats is the accounting of the evaluation that produced the
	// result; CacheHit and ElapsedNs describe this call.
	Stats QueryStats

	// c is the cached result the page was cut from, and start the key
	// order position of Rows[0] in it; c is nil for a Page built by
	// hand.
	c     *cachedResult
	start int
}

// AppendRows appends enc's encoding of each of the page's rows, in
// order, to dst and returns the extended slice. The encoding of a row is
// memoized on the cached result behind the page, like its resolution:
// enc runs once per row for as long as the entry lives, a repeated page
// copies bytes, and a change to the dataspace retires the entry together
// with its encoded rows. enc must therefore be a pure function of the
// row, and the same function on every call against one System. A Page
// not returned by QueryPage has no memo; its rows are encoded on every
// call.
func (p *Page) AppendRows(dst []byte, enc func(dst []byte, row Row) []byte) []byte {
	c := p.c
	if c == nil {
		for _, row := range p.Rows {
			dst = enc(dst, row)
		}
		return dst
	}
	dst, missing := c.appendEncoded(dst, p.start, len(p.Rows))
	if missing == nil {
		return dst
	}
	// enc is the caller's code, so it runs outside c.mu, encoding the
	// missing rows into dst's spare capacity until they are memoized.
	base := len(dst)
	ends := make([]int, len(missing))
	for i, k := range missing {
		dst = enc(dst, p.Rows[k])
		ends[i] = len(dst) - base
	}
	c.memoizeEncoded(p.start, missing, dst[base:], ends)
	dst, _ = c.appendEncoded(dst[:base], p.start, len(p.Rows))
	return dst
}

// appendEncoded appends the memoized encodings of the n rows from key
// order position start. When some of them are not memoized it appends
// nothing and returns their offsets from start instead.
func (c *cachedResult) appendEncoded(dst []byte, start, n int) ([]byte, []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if end := start + n; end > len(c.enc) {
		c.enc = append(c.enc, make([]encSpan, end-len(c.enc))...)
	}
	spans := c.enc[start : start+n]
	var missing []int
	for k, sp := range spans {
		if sp.end == 0 {
			missing = append(missing, k)
		}
	}
	if missing != nil {
		return dst, missing
	}
	for _, sp := range spans {
		dst = append(dst, c.encBuf[sp.off:sp.end]...)
	}
	return dst, nil
}

// memoizeEncoded memoizes the rows at offsets ks from key order
// position start, given encoded back to back in b with the i-th ending
// at ends[i]; appendEncoded has grown enc over them. A row memoized
// meanwhile keeps its first encoding.
func (c *cachedResult) memoizeEncoded(start int, ks []int, b []byte, ends []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.encBuf = slices.Grow(c.encBuf, len(b))
	from := 0
	for i, k := range ks {
		if sp := &c.enc[start+k]; sp.end == 0 {
			off := len(c.encBuf)
			c.encBuf = append(c.encBuf, b[from:ends[i]]...)
			*sp = encSpan{off, len(c.encBuf)}
		}
		from = ends[i]
	}
}

// QueryPage evaluates q like Query but resolves and returns a single
// page: up to limit rows (every remaining row when limit <= 0) whose
// key is strictly greater than `after` (nil starts from the beginning).
// A row's key is its OIDs in column order; keys compare
// lexicographically. OIDs are assigned once and never reused for a
// live view, so a key never changes and a row only ever sorts into one
// place: walking a result by feeding each page's Next back as `after`
// sees every row at most once, in strictly increasing key order, even
// when the dataspace changes between pages.
//
// The result behind the page is cached per dataspace version exactly as
// for Query, and the two share entries. The key order is computed once
// per entry and a row is resolved against the catalog the first time a
// page (or Query) returns it, so repeating a page does neither; see
// AppendRows for the same memo over a row's encoding.
func (s *System) QueryPage(q string, after []OID, limit int) (*Page, error) {
	start := time.Now()
	c, hit, err := s.cachedQuery(q, start)
	if err != nil {
		return nil, err
	}
	rows, pos, next := c.page(s, after, limit)
	p := &Page{
		Columns: c.r.Columns,
		Rows:    rows,
		Total:   len(c.r.Rows),
		Next:    next,
		Stale:   c.stale(),
		Stats:   c.r.Stats,
		c:       c,
		start:   pos,
	}
	p.Stats.CacheHit = hit
	s.finishQuery(q, c, hit, start, &p.Stats)
	return p, nil
}

// resolver turns OIDs into Items with one catalog lookup per item.
// Ancestors repeat heavily across the rows of one result, so the path
// of every view met along the way is kept for the resolver's lifetime.
type resolver struct {
	s     *System
	paths map[OID]string
}

// maxPathDepth bounds the ancestor walk, against malformed parent
// cycles.
const maxPathDepth = 128

// item resolves oid; a view the catalog no longer has resolves to a
// placeholder.
func (r *resolver) item(oid OID) Item {
	e, err := r.s.mgr.Entry(oid)
	if err != nil {
		return Item{OID: oid, Name: "<unknown>"}
	}
	return Item{
		OID:    oid,
		Name:   e.Name,
		Class:  e.Class,
		Source: e.Source,
		URI:    e.URI,
		Path:   r.pathOf(e, maxPathDepth),
	}
}

// path renders the name chain from the source root to oid, following
// catalog Parent links.
func (r *resolver) path(oid OID, depth int) string {
	if depth <= 0 {
		return "/..."
	}
	if p, ok := r.paths[oid]; ok {
		return p
	}
	e, err := r.s.mgr.Entry(oid)
	if err != nil {
		return "/<unknown>"
	}
	return r.pathOf(e, depth)
}

func (r *resolver) pathOf(e catalog.Entry, depth int) string {
	name := e.Name
	if name == "" {
		name = "(" + e.Class + ")"
	}
	path := "/" + name
	if e.Parent != 0 {
		path = r.path(e.Parent, depth-1) + path
	}
	if r.paths == nil {
		r.paths = make(map[OID]string)
	}
	r.paths[e.OID] = path
	return path
}
