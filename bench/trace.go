package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	idm "repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/iql"
	"repro/internal/rvm"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/textindex"
	"repro/internal/tupleindex"
)

// node is one layer of a ladder tree.
type node struct {
	layer    string
	children []*node
}

// chain nests the layers, first outermost.
func chain(layers ...string) *node {
	root := &node{layer: layers[0]}
	at := root
	for _, l := range layers[1:] {
		c := &node{layer: l}
		at.children = []*node{c}
		at = c
	}
	return root
}

// deepest follows first children to the innermost layer.
func (n *node) deepest() *node {
	for len(n.children) > 0 {
		n = n.children[0]
	}
	return n
}

// with hangs children under the innermost layer and returns the root.
func (n *node) with(children ...*node) *node {
	d := n.deepest()
	d.children = children
	return n
}

func (n *node) leaves(layers ...string) *node {
	var cs []*node
	for _, l := range layers {
		cs = append(cs, &node{layer: l})
	}
	return n.with(cs...)
}

// each visits the tree outermost first.
func (n *node) each(fn func(*node)) {
	fn(n)
	for _, c := range n.children {
		c.each(fn)
	}
}

// spans is one op's inclusive time per layer; a layer the op never
// reached (everything under a cache hit) is absent and counts as zero.
type spans map[string]time.Duration

// ladderAgg sums the spans of every op of one kind.
type ladderAgg struct {
	sum spans
	n   int
}

func (a *ladderAgg) add(s spans) {
	if a.sum == nil {
		a.sum = spans{}
	}
	for l, d := range s {
		a.sum[l] += d
	}
	a.n++
}

// selfs returns each layer's mean self time in µs — its inclusive time
// minus its children's — and the mean depth-0 time. The selfs of a tree
// sum to depth 0 by construction: every inclusive time below the root
// is added once and subtracted once.
func (a *ladderAgg) selfs(tree *node) (self map[string]float64, depth0 float64) {
	self = map[string]float64{}
	tree.each(func(n *node) {
		d := a.sum[n.layer]
		for _, c := range n.children {
			d -= a.sum[c.layer]
		}
		self[n.layer] = 0
		if a.n > 0 {
			self[n.layer] = us(d) / float64(a.n)
		}
	})
	if a.n > 0 {
		depth0 = us(a.sum[tree.layer]) / float64(a.n)
	}
	return self, depth0
}

// lookup is one index access a query made.
type lookup struct {
	class   string // phrase, tuple, name
	phrase  string
	attr    string
	op      tupleindex.Op
	value   core.Value
	pattern string
}

// recStore is an iql.Store that notes which index lookups a query
// makes; everything else, the optional fast paths included, is the
// embedded Manager's.
type recStore struct {
	*rvm.Manager
	calls []lookup
}

func (r *recStore) ContentPhrase(p string) []catalog.OID {
	r.calls = append(r.calls, lookup{class: "phrase", phrase: p})
	return r.Manager.ContentPhrase(p)
}

func (r *recStore) TupleQuery(attr string, op tupleindex.Op, v core.Value) []catalog.OID {
	r.calls = append(r.calls, lookup{class: "tuple", attr: attr, op: op, value: v})
	return r.Manager.TupleQuery(attr, op, v)
}

func (r *recStore) MatchNames(pattern string) []catalog.OID {
	r.calls = append(r.calls, lookup{class: "name", pattern: pattern})
	return r.Manager.MatchNames(pattern)
}

// rawIndexes are the content and tuple indexes built straight from a
// recovered state, the way RestoreFromState builds the Manager's own:
// the depth below rvm.
type rawIndexes struct {
	names, content *textindex.Index
	tuples         *tupleindex.Index
}

// buildRaw returns the indexes and how long the text and tuple builds
// took.
func buildRaw(st *store.State) (rawIndexes, time.Duration, time.Duration) {
	oids := make([]catalog.OID, 0, len(st.Views))
	for oid := range st.Views {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	t0 := time.Now()
	nb, cb := textindex.NewBuilder(), textindex.NewBuilder()
	for _, oid := range oids {
		v := st.Views[oid]
		nb.Add(textindex.DocID(oid), v.Entry.Name)
		if v.Text != "" {
			cb.Add(textindex.DocID(oid), v.Text)
		}
	}
	raw := rawIndexes{names: nb.Build(), content: cb.Build()}
	text := time.Since(t0)
	t0 = time.Now()
	tb := tupleindex.NewBuilder()
	for _, oid := range oids {
		if v := st.Views[oid]; !v.Tuple.IsEmpty() {
			tb.Add(tupleindex.DocID(oid), v.Tuple)
		}
	}
	raw.tuples = tb.Build()
	return raw, text, time.Since(t0)
}

// twin is the in-process copy of the daemon's state the ladder calls
// into: a server.Server for depth 1 and one System per tenant for depth
// 2 and below. Each depth has its own copy so that running an op at one
// depth does not warm a cache for the next.
type twin struct {
	w   *workload
	dir string

	srv       *server.Server
	srvAPI    *api
	lastServe time.Duration // ServeHTTP time of the last srvAPI call

	sys []*idm.System
	eng []*iql.Engine
	raw rawIndexes
	// lookups memoizes, per query text, the index accesses it makes.
	lookups map[string][]lookup

	// Sinks the ingest ladder re-appends and re-indexes an op's own
	// records into.
	scratch      storage.Engine
	scratchDir   string
	scratchText  *textindex.Index
	scratchTuple *tupleindex.Index

	// Cache counters carried across System reopens.
	hits, misses, evictions int64
	// lru orders the open Systems, least recently used first.
	lru []int
	// err is the first failure to reopen a System; it voids the run.
	err error
}

func (tw *twin) sysConfig(t int) idm.Config {
	return idm.Config{
		DataDir:      filepath.Join(tw.dir, "sys", tw.w.tenantNames()[t]),
		Parallelism:  1,
		QueryLogSize: -1,
	}
}

func (tw *twin) openSys(t int) error {
	sys, _, err := idm.OpenDurable(tw.sysConfig(t))
	if err != nil {
		return err
	}
	tw.sys[t] = sys
	tw.eng[t] = iql.NewEngine(sys.Manager(), iql.Options{Parallelism: 1, Planner: iql.PlannerAdaptive, Metrics: sys.Metrics()})
	return nil
}

func (tw *twin) closeSys(t int) {
	if tw.sys[t] == nil {
		return
	}
	cs := tw.sys[t].CacheStats()
	tw.hits += cs.Hits
	tw.misses += cs.Misses
	tw.evictions += cs.Evictions
	tw.sys[t].Close()
	tw.sys[t] = nil
}

// use returns tenant t's System, opening it if needed and, under a
// -max-open-tenants cap, closing the least recently used beyond it:
// the depth-2 copy keeps no more Systems on the heap than the daemon
// does, so the two processes' collectors see comparable work. It
// returns nil, and keeps the error in tw.err, if the reopen fails.
func (tw *twin) use(t int) *idm.System {
	for i, u := range tw.lru {
		if u == t {
			tw.lru = append(tw.lru[:i], tw.lru[i+1:]...)
			break
		}
	}
	tw.lru = append(tw.lru, t)
	if tw.sys[t] == nil {
		if err := tw.openSys(t); err != nil {
			tw.err = fmt.Errorf("twin: reopen tenant %d: %w", t, err)
			return nil
		}
	}
	for tw.w.maxOpen > 0 && len(tw.lru) > tw.w.maxOpen {
		tw.closeSys(tw.lru[0])
		tw.lru = tw.lru[1:]
	}
	return tw.sys[t]
}

// newTwin loads both in-process copies exactly as setup loaded the
// daemon.
func newTwin(w *workload, e *env, dir string) (*twin, error) {
	tw := &twin{w: w, dir: dir, lookups: map[string][]lookup{},
		sys: make([]*idm.System, w.tenants), eng: make([]*iql.Engine, w.tenants),
		scratchText: textindex.New(), scratchTuple: tupleindex.New()}
	srv, err := server.New(server.Config{
		Root:              filepath.Join(dir, "srv"),
		MaxOpenTenants:    w.maxOpen,
		Quota:             server.Quota{MaxSources: w.quotaSources},
		TenantParallelism: 1,
	})
	if err != nil {
		return nil, err
	}
	tw.srv = srv
	tw.srvAPI = &api{tenants: w.tenantNames(), acks: newAckTable(w.tenants), do: func(method, path string, body []byte, into *bytes.Buffer) (int, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		rec.Body = into
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		tw.lastServe = time.Since(t0)
		return rec.Code, nil
	}}
	if err := w.load(tw.srvAPI, e); err != nil {
		return nil, err
	}
	for t := 0; t < w.tenants; t++ {
		if err := tw.openSys(t); err != nil {
			return nil, err
		}
		sys := tw.sys[t]
		if err := sys.AddDataset(idm.GenerateDataset(idm.DatasetConfig{Scale: w.scale, Seed: e.seed})); err != nil {
			return nil, err
		}
		if _, err := sys.Index(); err != nil {
			return nil, err
		}
		if w.checkpointed(t) {
			if err := sys.Checkpoint(); err != nil {
				return nil, err
			}
		}
		if t == 0 {
			tw.raw, _, _ = buildRaw(sys.Manager().Store().State())
		}
		// Reopen without live sources, as load's evict leaves the daemon.
		sys.Close()
		tw.sys[t] = nil
		reopened := tw.use(t)
		if reopened == nil {
			return nil, tw.err
		}
		for _, q := range e.hot {
			if _, err := reopened.Query(q.text); err != nil {
				return nil, err
			}
		}
	}
	tw.scratchDir = filepath.Join(dir, "scratch")
	tw.scratch, _, err = storage.Open(tw.scratchDir, storage.Options{Sync: store.SyncOnCommit})
	if err != nil {
		return nil, err
	}
	// Baseline: the warm pass above is not part of the measured stream.
	tw.hits, tw.misses, tw.evictions = 0, 0, 0
	for _, sys := range tw.sys {
		if sys != nil {
			cs := sys.CacheStats()
			tw.hits -= cs.Hits
			tw.misses -= cs.Misses
			tw.evictions -= cs.Evictions
		}
	}
	return tw, nil
}

func (tw *twin) close() {
	for t := range tw.sys {
		if tw.sys[t] != nil {
			tw.sys[t].Close()
		}
	}
	tw.srv.Close()
	if tw.scratch != nil {
		tw.scratch.Close()
	}
}

// tracer runs ops down the ladder and accumulates every per-layer
// figure.
type tracer struct {
	s   *session
	tw  *twin
	agg [numKinds]ladderAgg
	// d0 holds the daemon-side samples and checks of the ladder pass;
	// twinRec the depth-1 checks (a failure there means the twin
	// diverged from the daemon and the ladder is void).
	d0, twinRec *recorder

	parse                      time.Duration
	parsed                     int
	exec                       [numFamilies]time.Duration
	execN                      [numFamilies]int
	rows, scanned, postings    int64
	expanded                   int64
	estRatios                  []float64
	lookupT                    map[string]time.Duration
	lookupN                    map[string]int
	rawPhrase, rawTuple        time.Duration
	rawPhraseN, rawTupleN      int
	syncT                      time.Duration
	syncViews                  int
	appendT                    time.Duration
	appended                   int
	walBytes, ingestBytes      int64
	textAddT                   time.Duration
	textDocs                   int
	restoreT, catalogT, closeT time.Duration
	opens                      int
}

func newTracer(s *session, tw *twin) *tracer {
	return &tracer{s: s, tw: tw, d0: &recorder{}, twinRec: &recorder{},
		lookupT: map[string]time.Duration{}, lookupN: map[string]int{}}
}

// run takes o down the ladder.
func (tr *tracer) run(o *op) {
	tr.one(o)
	for i := range o.then {
		tr.one(&o.then[i])
	}
}

func (tr *tracer) one(o *op) {
	if o.quiet {
		// A state-setting request: every copy gets it, nothing is timed.
		tr.s.a.one(o, time.Now(), 0, tr.d0)
		tr.tw.srvAPI.one(o, time.Now(), 0, tr.twinRec)
		tr.tw.use(o.tenant)
		return
	}
	switch o.kind {
	case kQuery:
		tr.query(o)
	case kWalk:
		tr.walk(o)
	case kIngest:
		tr.ingest(o)
	case kDelete:
		now := time.Now()
		tr.s.a.one(o, now, 0, tr.d0)
		tr.tw.srvAPI.one(o, now, 0, tr.twinRec)
		if sys := tr.tw.use(o.tenant); sys != nil {
			sys.RemoveSource(o.src.id)
		}
	case kColdOpen:
		tr.coldOpen(o)
	}
}

func (tr *tracer) query(o *op) {
	q := o.q
	if o.marker {
		if q = tr.s.a.markerQuery(o); q == nil {
			return
		}
	}
	plain := &op{kind: kQuery, tenant: o.tenant, q: q}
	sp := spans{}
	tr.s.a.one(plain, time.Now(), 0, tr.d0)
	sp["http"] = tr.d0.samples[len(tr.d0.samples)-1].lat
	tr.tw.srvAPI.one(plain, time.Now(), 0, tr.twinRec)
	sp["server"] = tr.tw.lastServe
	tr.below(o.tenant, q, sp)
	tr.agg[kQuery].add(sp)
}

// below times depth 2 and, when the result cache missed, the depths
// under it.
func (tr *tracer) below(t int, q *query, sp spans) {
	sys := tr.tw.use(t)
	if sys == nil {
		return
	}
	t0 := time.Now()
	res, err := sys.Query(q.text)
	sp["idm"] = time.Since(t0)
	if err != nil || res.Stats.CacheHit {
		return
	}
	t0 = time.Now()
	er, err := tr.tw.eng[t].Query(q.text)
	sp["iql"] = time.Since(t0)
	if err != nil {
		return
	}
	tr.exec[q.fam] += sp["iql"]
	tr.execN[q.fam]++
	st := er.Stats
	tr.rows += st.Rows
	tr.scanned += st.RowsScanned
	tr.postings += st.PostingsRead
	tr.expanded += st.ViewsExpanded
	if st.EstimatedRows >= 0 {
		tr.estRatios = append(tr.estRatios, float64(st.EstimatedRows)/float64(max(st.Rows, 1)))
	}
	t0 = time.Now()
	iql.Parse(q.text)
	tr.parse += time.Since(t0)
	tr.parsed++

	calls, ok := tr.tw.lookups[q.text]
	if !ok {
		rs := &recStore{Manager: sys.Manager()}
		iql.NewEngine(rs, iql.Options{Parallelism: 1, Planner: iql.PlannerAdaptive}).Query(q.text)
		calls = rs.calls
		tr.tw.lookups[q.text] = calls
	}
	mgr := sys.Manager()
	for _, c := range calls {
		t0 = time.Now()
		switch c.class {
		case "phrase":
			mgr.ContentPhrase(c.phrase)
		case "tuple":
			mgr.TupleQuery(c.attr, c.op, c.value)
		case "name":
			mgr.MatchNames(c.pattern)
		}
		d := time.Since(t0)
		sp["rvm"] += d
		tr.lookupT[c.class] += d
		tr.lookupN[c.class]++
	}
	for _, c := range calls {
		t0 = time.Now()
		switch c.class {
		case "phrase":
			tr.tw.raw.content.Phrase(c.phrase)
			d := time.Since(t0)
			sp["textindex"] += d
			tr.rawPhrase += d
			tr.rawPhraseN++
		case "tuple":
			tr.tw.raw.tuples.Query(c.attr, c.op, c.value)
			d := time.Since(t0)
			sp["tupleindex"] += d
			tr.rawTuple += d
			tr.rawTupleN++
		}
	}
}

// walk runs the cursor walk on the daemon, then replays each of its
// page requests at the depths below.
func (tr *tracer) walk(o *op) {
	type page struct {
		body []byte
		lat  time.Duration
	}
	var pages []page
	now := time.Now()
	tr.s.a.walk(o, now, 0, tr.d0, func(body []byte, lat time.Duration) { pages = append(pages, page{body, lat}) })
	path := tr.tw.srvAPI.path(o.tenant, "/query")
	for _, p := range pages {
		sp := spans{"http": p.lat}
		tr.tw.srvAPI.exchange(tr.twinRec, time.Now(), "POST", path, p.body)
		sp["server"] = tr.tw.lastServe
		sys := tr.tw.use(o.tenant)
		if sys == nil {
			return
		}
		t0 := time.Now()
		sys.Query(o.q.text)
		sp["idm"] = time.Since(t0)
		tr.agg[kPage].add(sp)
	}
}

func (tr *tracer) ingest(o *op) {
	sp := spans{}
	now := time.Now()
	tr.s.a.one(o, now, 0, tr.d0)
	sp["http"] = tr.d0.samples[len(tr.d0.samples)-1].lat
	tr.tw.srvAPI.one(o, time.Now(), 0, tr.twinRec)
	sp["server"] = tr.tw.lastServe

	// Depth 2: what the handler asks of the System, on a filesystem built
	// outside the timed span.
	sys := tr.tw.use(o.tenant)
	if sys == nil {
		return
	}
	fs := sourceFS(o.src)
	st := sys.Manager().Store()
	from := st.NextLSN() - 1
	t0 := time.Now()
	err := sys.AddFileSystem(o.src.id, fs)
	var rep idm.SyncReport
	if err == nil {
		rep, err = sys.Index()
	}
	sp["rvm"] = time.Since(t0)
	if err != nil {
		tr.twinRec.fail("twin ingest %s: %v", o.src.id, err)
		return
	}
	tr.syncT += sp["rvm"]
	tr.syncViews += rep.TotalViews()

	// Depth 3: the op's own WAL records re-appended to a scratch engine
	// under the same fsync policy, and its own documents re-added to
	// scratch indexes.
	tail, _, ok, err := st.TailSince(from)
	if err != nil || !ok {
		tr.twinRec.fail("twin tail since %d: ok=%v err=%v", from, ok, err)
		return
	}
	before := dirBytes(tr.tw.scratchDir)
	t0 = time.Now()
	for _, r := range tail {
		switch r.Rec.Kind {
		case store.KindUpsert:
			tr.tw.scratch.Append(r.Rec.View.Entry.Source, r.Rec)
		case store.KindEdges:
			tr.tw.scratch.Append(r.Rec.Source, r.Rec)
		default:
			continue
		}
		tr.appended++
	}
	sp["storage"] = time.Since(t0)
	tr.appendT += sp["storage"]
	tr.walBytes += dirBytes(tr.tw.scratchDir) - before
	tr.ingestBytes += int64(o.src.bytes)

	for _, r := range tail {
		if r.Rec.Kind != store.KindUpsert {
			continue
		}
		v := r.Rec.View
		t0 = time.Now()
		tr.tw.scratchText.Add(textindex.DocID(v.Entry.OID), v.Entry.Name)
		if v.Text != "" {
			tr.tw.scratchText.Add(textindex.DocID(v.Entry.OID)|1<<62, v.Text)
			tr.textDocs++
		}
		sp["textindex"] += time.Since(t0)
		if !v.Tuple.IsEmpty() {
			t0 = time.Now()
			tr.tw.scratchTuple.Add(tupleindex.DocID(v.Entry.OID), v.Tuple)
			sp["tupleindex"] += time.Since(t0)
		}
	}
	tr.textAddT += sp["textindex"]
	tr.agg[kIngest].add(sp)
}

func (tr *tracer) coldOpen(o *op) {
	sp := spans{}
	t := o.tenant
	tr.s.a.one(o, time.Now(), 0, tr.d0)
	sp["http"] = tr.d0.samples[len(tr.d0.samples)-1].lat
	// Each in-process open starts from a collected heap: the opens run
	// back to back in one process, and without this each depth would pay
	// for the garbage of the one before and come out slower than its
	// parent.
	runtime.GC()
	tr.tw.srvAPI.one(o, time.Now(), 0, tr.twinRec)
	sp["server"] = tr.tw.lastServe

	// Depth 2: the facade's durable open of the same directory.
	tr.tw.closeSys(t)
	cfg := tr.tw.sysConfig(t)
	runtime.GC()
	t0 := time.Now()
	sys, _, err := idm.OpenDurable(cfg)
	if err == nil {
		sys.StateDigest()
	}
	sp["idm"] = time.Since(t0)
	if err != nil {
		tr.twinRec.fail("twin reopen of tenant %d: %v", t, err)
		return
	}
	sys.Close()
	sys = nil

	// Depth 3: the three things OpenDurable does, each called directly.
	runtime.GC()
	t0 = time.Now()
	st, _, err := storage.Open(cfg.DataDir, storage.Options{Sync: store.SyncOnCommit})
	sp["storage"] = time.Since(t0)
	if err != nil {
		tr.twinRec.fail("twin storage open of tenant %d: %v", t, err)
		return
	}
	state := st.State()
	t0 = time.Now()
	cat := catalog.Rebuild(state.NextOID, state.Entries())
	sp["catalog"] = time.Since(t0)
	opts := rvm.DefaultOptions()
	opts.Store = st
	t0 = time.Now()
	rvm.NewWithCatalog(opts, cat).RestoreFromState(state)
	sp["rvm"] = time.Since(t0)
	// Depth 4: the index builds inside RestoreFromState, done alone.
	runtime.GC()
	_, sp["textindex"], sp["tupleindex"] = buildRaw(state)
	t0 = time.Now()
	st.Close()
	tr.closeT += time.Since(t0)
	tr.restoreT += sp["rvm"]
	tr.catalogT += sp["catalog"]
	tr.opens++
	tr.agg[kColdOpen].add(sp)
	tr.tw.use(t)
}

// sourceFS builds the filesystem the server's handler would build from
// the request.
func sourceFS(src *source) *idm.FS {
	fs := idm.NewFileSystem()
	for p, content := range src.files {
		fs.MkdirAll(filepath.Dir(p))
		fs.WriteFile(p, []byte(content))
	}
	return fs
}

// mirrorWrites applies the writes of stream indexes [from, to) to the
// twins: the untraced phase of a traced run reaches only the daemon,
// and the ladder needs all three copies in the same state.
func (tr *tracer) mirrorWrites(l *lane, from, to int) {
	for i := from; i < to; i++ {
		o := l.next(i)
		switch o.kind {
		case kIngest:
			tr.tw.srvAPI.one(&o, time.Now(), 0, tr.twinRec)
			if sys := tr.tw.use(o.tenant); sys != nil && sys.AddFileSystem(o.src.id, sourceFS(o.src)) == nil {
				sys.Index()
			}
		case kDelete:
			tr.tw.srvAPI.one(&o, time.Now(), 0, tr.twinRec)
			if sys := tr.tw.use(o.tenant); sys != nil {
				sys.RemoveSource(o.src.id)
			}
		}
	}
}

// storageBench opens one recovered state through each recovery path:
// WAL replay, snapshot load and the compact backend's segments.
func storageBench(state *store.State, dir string, m map[string]float64) error {
	recs := state.Records()
	fill := func(e storage.Engine) error {
		for _, r := range recs {
			src := r.Source
			if r.Kind == store.KindUpsert {
				src = r.View.Entry.Source
			}
			if err := e.Append(src, r); err != nil {
				return err
			}
		}
		return nil
	}
	reopen := func(sub string, opts storage.Options) (storage.Engine, store.RecoveryInfo, float64, error) {
		t0 := time.Now()
		e, info, err := storage.Open(filepath.Join(dir, sub), opts)
		return e, info, ms(time.Since(t0)), err
	}
	walOpts := storage.Options{Sync: store.SyncNever}
	e, _, _, err := reopen("wal", walOpts)
	if err != nil {
		return err
	}
	if err := fill(e); err != nil {
		return err
	}
	e.Close()
	e, info, took, err := reopen("wal", walOpts)
	if err != nil {
		return err
	}
	m["storage.open_ms.wal_replay"] = took
	m["storage.records_replayed"] = float64(info.WALRecords)
	t0 := time.Now()
	if err := e.Snapshot(); err != nil {
		return err
	}
	m["storage.checkpoint_ms"] = ms(time.Since(t0))
	e.Close()
	e, _, took, err = reopen("wal", walOpts)
	if err != nil {
		return err
	}
	m["storage.open_ms.snapshot"] = took
	e.Close()

	cOpts := storage.Options{Backend: storage.BackendCompact, Sync: store.SyncNever}
	e, _, _, err = reopen("compact", cOpts)
	if err != nil {
		return err
	}
	if err := fill(e); err != nil {
		return err
	}
	if err := e.Snapshot(); err != nil {
		return err
	}
	e.Close()
	e, _, took, err = reopen("compact", cOpts)
	if err != nil {
		return err
	}
	m["storage.open_ms.compact"] = took
	e.Close()
	return nil
}

// Ladder probe sizes: the op kinds a workload's streams lack still get
// a few trips down the ladder so every per-layer metric is measured.
const (
	ladderWalks     = 3
	ladderIngestOps = 1 + liveSources + 2*6 // one opening digest, 8 adds, 6 deletes
	ladderColdOpens = 4
)

// A traced run's seconds: an untraced open loop (generator health and
// tail diagnostics), an untraced pass driven exactly as the ladder is
// (the baseline tracing overhead is judged against), then the ladder.
const (
	openShare     = 0.2
	baselineShare = 0.1
)

// interleave takes ops from the lanes one at a time, in proportion to
// their rates, until deadline.
func interleave(lanes []*lane, deadline time.Time, fn func(*op)) {
	vt := make([]float64, len(lanes))
	for time.Now().Before(deadline) {
		li := 0
		for i := range vt {
			if vt[i] < vt[li] {
				li = i
			}
		}
		l := lanes[li]
		vt[li] += 1 / l.rate
		o := l.next(l.start)
		l.start++
		fn(&o)
	}
}

// runTraced is one `--trace 1` run.
func runTraced(w *workload, opt options) (*report, runInfo, error) {
	var info runInfo
	opt.setups = 1
	s, err := open(w, opt)
	if err != nil {
		return nil, info, err
	}
	defer s.close()
	info.daemonProcs = s.d.gomaxprocs()
	tw, err := newTwin(w, s.e, filepath.Join(s.root, "twin"))
	if err != nil {
		return nil, info, fmt.Errorf("twin: %w", err)
	}
	defer tw.close()
	tr := newTracer(s, tw)
	before := s.d.counters()

	total := time.Duration(opt.seconds * float64(time.Second))
	starts := make([]int, len(s.lanes))
	for i, l := range s.lanes {
		starts[i] = l.start
	}
	untraced := openLoop(s.lanes, time.Duration(float64(total)*openShare), opt.seed, s.a.run)
	baseline := &recorder{}
	interleave(s.lanes, time.Now().Add(time.Duration(float64(total)*baselineShare)), func(o *op) {
		now := time.Now()
		s.a.run(o, now, now, baseline)
	})
	for i, l := range s.lanes {
		tr.mirrorWrites(l, starts[i], l.start)
	}
	interleave(s.lanes, time.Now().Add(time.Duration(float64(total)*(1-openShare-baselineShare))), tr.run)
	if !w.has[kWalk] {
		for i := 0; i < ladderWalks; i++ {
			o := s.e.walkProbe(i)
			tr.run(&o)
		}
	}
	if !w.has[kIngest] {
		for i := 0; i < ladderIngestOps; i++ {
			o := s.e.ingestProbe(i)
			tr.run(&o)
		}
	}
	if !w.has[kColdOpen] {
		for i := 0; i < ladderColdOpens; i++ {
			o := s.e.coldOpenProbe(i)
			tr.run(&o)
		}
	}

	m := tr.metrics(untraced, baseline)
	// The daemon's own counters, since set-up ended.
	after := s.d.counters()
	for name, key := range map[string]string{"requests": "srv_requests_total", "throttled": "srv_throttled_total",
		"tenant_opens": "srv_tenant_opens_total", "tenant_evictions": "srv_tenant_evictions_total"} {
		m["server."+name] = after[key] - before[key]
	}
	cold := len(mergeRecorders(untraced, baseline, tr.d0).lats(ofKind(kColdOpen)))
	fmt.Fprintf(os.Stderr, "daemon opened tenants %.0f times for %d cold-open requests\n", m["server.tenant_opens"], cold)
	sys0 := tw.use(0)
	if tw.err != nil {
		return nil, info, tw.err
	}
	state := sys0.Manager().Store().State()
	if err := storageBench(state, filepath.Join(s.root, "storagebench"), m); err != nil {
		return nil, info, fmt.Errorf("storage bench: %w", err)
	}
	vals, err := fill(perLayer, m)
	if err != nil {
		return nil, info, err
	}
	all := mergeRecorders(untraced, baseline, tr.d0, tr.twinRec)
	for _, note := range all.notes {
		fmt.Fprintln(os.Stderr, "FAILED:", note)
	}
	tr.printLadders()
	s.finish(&info)
	return &report{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: vals}, info, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics turns the tracer's sums into the per-layer metric map.
func (tr *tracer) metrics(untraced, baseline *recorder) map[string]float64 {
	m := map[string]float64{}
	for _, k := range ladderKinds {
		self, d0 := tr.agg[k].selfs(ladders[k])
		m[fmt.Sprintf("ladder.depth0_us.%s", k)] = d0
		for layer, v := range self {
			m[fmt.Sprintf("%s.self_us.%s", layer, k)] = v
		}
	}
	var late []time.Duration
	for _, s := range untraced.samples {
		late = append(late, s.late)
	}
	m["loadgen.late_p95_ms"] = percentile(sortedMS(late), 95)
	m["loadgen.sent"] = float64(len(late))

	both := mergeRecorders(untraced, baseline, tr.d0)
	m["http.resp_bytes_per_op"] = ratio(float64(both.respBytes), float64(both.attempted))
	m["server.rows_examined_per_row"] = ratio(float64(both.rowsTotal), float64(both.rowsSent))
	q := sortedMS(both.lats(ofKind(kQuery)))
	m["http.query_p95_ms"] = percentile(q, 95)
	m["http.query_p99_ms"] = percentile(q, 99)
	m["http.query_p999_ms"] = percentile(q, 99.9)
	m["http.ingest_p95_ms"] = percentile(sortedMS(both.lats(ofKind(kIngest))), 95)
	m["http.cold_open_p90_ms"] = percentile(sortedMS(both.lats(ofKind(kColdOpen))), 90)

	hits, misses, evictions := tr.tw.hits, tr.tw.misses, tr.tw.evictions
	for _, sys := range tr.tw.sys {
		if sys != nil {
			cs := sys.CacheStats()
			hits += cs.Hits
			misses += cs.Misses
			evictions += cs.Evictions
		}
	}
	m["idm.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["idm.cache_evictions"] = float64(evictions)

	m["iql.parse_us"] = ratio(us(tr.parse), float64(tr.parsed))
	for f := family(0); f < numFamilies; f++ {
		m["iql.exec_us."+f.String()] = ratio(us(tr.exec[f]), float64(tr.execN[f]))
	}
	rows := float64(max(tr.rows, 1))
	m["iql.rows_scanned_per_row"] = float64(tr.scanned) / rows
	m["iql.postings_read_per_row"] = float64(tr.postings) / rows
	m["iql.views_expanded_per_row"] = float64(tr.expanded) / rows
	m["iql.estimate_ratio_p50"] = 0
	if len(tr.estRatios) > 0 {
		m["iql.estimate_ratio_p50"] = median(tr.estRatios)
	}
	m["iql.rows_per_query"] = ratio(float64(tr.rows), float64(tr.parsed))
	for _, c := range []string{"phrase", "tuple", "name"} {
		m["rvm.lookup_us."+c] = ratio(us(tr.lookupT[c]), float64(tr.lookupN[c]))
	}
	m["textindex.phrase_us"] = ratio(us(tr.rawPhrase), float64(tr.rawPhraseN))
	m["tupleindex.query_us"] = ratio(us(tr.rawTuple), float64(tr.rawTupleN))
	m["rvm.sync_us_per_view"] = ratio(us(tr.syncT), float64(tr.syncViews))
	m["storage.append_us_per_record"] = ratio(us(tr.appendT), float64(tr.appended))
	m["storage.wal_bytes_per_user_byte"] = ratio(float64(tr.walBytes), float64(tr.ingestBytes))
	m["textindex.add_us_per_doc"] = ratio(us(tr.textAddT), float64(tr.textDocs))
	m["rvm.restore_ms"] = ratio(ms(tr.restoreT), float64(tr.opens))
	m["catalog.rebuild_ms"] = ratio(ms(tr.catalogT), float64(tr.opens))
	m["storage.close_ms"] = ratio(ms(tr.closeT), float64(tr.opens))

	// Tracing overhead: the ladder's depth-0 median against that of the
	// untraced pass driven the same way, on the op kind the workload
	// exists to measure.
	k := tr.s.w.primary
	base := percentile(sortedMS(baseline.lats(ofKind(k))), 50)
	traced := percentile(sortedMS(tr.d0.lats(ofKind(k))), 50)
	m["trace.overhead_pct"] = 100 * ratio(traced-base, base)
	return m
}

// printLadders writes each op kind's ladder to standard error: every
// layer's self time and the sum beside the measured depth-0 time.
func (tr *tracer) printLadders() {
	for _, k := range ladderKinds {
		a := &tr.agg[k]
		if a.n == 0 {
			continue
		}
		self, d0 := a.selfs(ladders[k])
		fmt.Fprintf(os.Stderr, "ladder %s (n=%d): depth 0 = %.1f us\n", k, a.n, d0)
		sum := 0.0
		ladders[k].each(func(n *node) {
			sum += self[n.layer]
			fmt.Fprintf(os.Stderr, "  %-11s self %10.1f us  %5.1f%%\n", n.layer, self[n.layer], 100*ratio(self[n.layer], d0))
		})
		fmt.Fprintf(os.Stderr, "  %-11s      %10.1f us\n", "sum", sum)
	}
}
