package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	idm "repro"
)

// workload is one named traffic mix: its tenants, the daemon flags it
// sets, and the op streams it offers.
type workload struct {
	name string
	why  string
	// tenants of scale each; every tenant loads the same (scale, seed)
	// dataset. The daemon shares nothing between tenants, so identical
	// content costs it the same as distinct content, and one reference
	// System can check every tenant.
	tenants int
	scale   float64
	// maxOpen and quotaSources are the only serving flags a workload
	// sets (0 keeps the daemon's default).
	maxOpen      int
	quotaSources int
	// checkpointed says which tenants are checkpointed after loading:
	// those recover from a snapshot, the others replay their WAL.
	checkpointed func(t int) bool
	// lanes builds the measured streams; rates are the frozen open-loop
	// reference rates, calibrated once at about 40% of the closed-loop
	// throughput of the commit that added the benchmark.
	lanes func(e *env) []*lane
	// closedShare of the measured seconds goes to the closed loop
	// (throughput), the rest to the open loop (latency from due time).
	closedShare float64
	// primary is the op kind the workload exists to measure.
	primary kind
	// has marks the rare op kinds the measured streams already contain;
	// the others are measured by a short fixed-count probe afterwards.
	has [numKinds]bool
}

func (w *workload) flags() []string {
	var f []string
	if w.maxOpen > 0 {
		f = append(f, "-max-open-tenants", strconv.Itoa(w.maxOpen))
	}
	if w.quotaSources > 0 {
		f = append(f, "-quota-sources", strconv.Itoa(w.quotaSources))
	}
	return f
}

func (w *workload) tenantNames() []string {
	names := make([]string, w.tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	return names
}

// coldPoolSize is 8× the facade's 256-entry result cache: by the time a
// tenant sees a query again the cache has been cleared many times over.
const coldPoolSize = 2048

// walkEvery makes every 20th op of a hot stream a full cursor walk.
const walkEvery = 20

// liveSources is how many ingested sources a tenant keeps: the add that
// follows deletes the one added liveSources adds earlier.
const liveSources = 2

func all(int) bool { return true }

var workloads = []*workload{
	{
		name:    "query_hot",
		why:     "8 paper queries + cursor walks on 4 resident tenants; result cache hits ~100%, so http/server/idm do the work and iql/indexes almost none",
		tenants: 4, scale: 0.05, checkpointed: all, closedShare: 0.3, primary: kQuery,
		has: [numKinds]bool{kWalk: true},
		lanes: func(e *env) []*lane {
			return []*lane{{name: "query", conns: 2, rate: 1100, next: e.hotOp}}
		},
	},
	{
		name:    "query_cold",
		why:     "2048 distinct templated queries per tenant, 8x the result cache; hits ~0%, so iql/rvm/textindex/tupleindex do the work and a server-only change stays flat",
		tenants: 4, scale: 0.05, checkpointed: all, closedShare: 0.3, primary: kQuery,
		lanes: func(e *env) []*lane {
			return []*lane{{name: "query", conns: 2, rate: 600, next: e.coldOp}}
		},
	},
	{
		name:    "ingest_mixed",
		why:     "one writer adds/deletes 16-file sources with sync beside one reader; every write invalidates the cache and storage append+fsync, rvm sync and index adds do the work",
		tenants: 4, scale: 0.05, quotaSources: 16, checkpointed: all, closedShare: 0.3, primary: kIngest,
		has: [numKinds]bool{kWalk: true, kIngest: true},
		lanes: func(e *env) []*lane {
			return []*lane{
				{name: "writer", conns: 1, rate: 25, next: func(i int) op { return e.writerOp(i, e.w.tenants) }},
				{name: "reader", conns: 1, rate: 430, next: e.readerOp},
			}
		},
	},
	{
		name:    "tenant_churn",
		why:     "8 tenants behind -max-open-tenants 2 visited round-robin; every visit cold-opens (recovery, catalog rebuild, index build), so storage/catalog/rvm restore do the work",
		tenants: 8, scale: 0.03, maxOpen: 2, primary: kColdOpen,
		// One client cycling through accounts waits for each answer, and
		// a cold open takes ~0.1 s: only a closed loop over the whole run
		// yields the 100+ samples a tail needs. An open loop on one
		// connection would mostly measure M/D/1 queueing; the sweep still
		// offers it.
		closedShare:  1,
		checkpointed: func(t int) bool { return t < 4 },
		has:          [numKinds]bool{kWalk: true, kColdOpen: true},
		lanes: func(e *env) []*lane {
			return []*lane{{name: "visit", conns: 1, rate: 5, next: e.visitOp}}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is what one run's streams draw on: the seed, the generated
// dataset, the reference System and the query pools with the
// reference's answers filled in.
type env struct {
	w       *workload
	seed    int64
	hot     []*query
	cold    []*query
	choices []uint8 // seeded picks among the hot pool
	acks    *ackTable
	// userBytes is the dataset content one tenant was loaded with.
	userBytes int64
	refViews  *query // carries ref.Count() for digest checks
}

// newEnv generates the run's inputs from (workload, seed) and asks the
// reference System for every expected answer. The reference and the
// dataset are garbage once it returns: a smaller generator heap means
// fewer collections competing with the daemon for the CPUs.
func newEnv(w *workload, seed int64) (*env, error) {
	e := &env{w: w, seed: seed, acks: newAckTable(w.tenants)}
	data := idm.GenerateDataset(idm.DatasetConfig{Scale: w.scale, Seed: seed})
	e.userBytes = data.Info.FSBytes + data.Info.MailBytes
	ref, err := idm.OpenDataset(data, idm.Config{Parallelism: 1, QueryLogSize: -1})
	if err != nil {
		return nil, err
	}
	if _, err := ref.Index(); err != nil {
		return nil, err
	}
	e.refViews = &query{want: ref.Count()}
	e.hot = hotPool()
	if w.name == "query_cold" {
		e.cold = coldPool(readCorpus(data), coldPoolSize, seed)
	}
	for _, q := range append(append([]*query(nil), e.hot...), e.cold...) {
		res, err := ref.Query(q.text)
		if err != nil {
			return nil, fmt.Errorf("reference rejects %q: %w", q.text, err)
		}
		q.want = res.Count()
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	e.choices = make([]uint8, 1<<13)
	for i := range e.choices {
		e.choices[i] = uint8(rng.Intn(len(e.hot)))
	}
	return e, nil
}

// hotPick is the i-th op of a hot stream on tenant t.
func (e *env) hotPick(i, t int) op {
	if i%walkEvery == walkEvery-1 {
		return op{kind: kWalk, tenant: t, q: e.hot[0]}
	}
	return op{kind: kQuery, tenant: t, q: e.hot[e.choices[i%len(e.choices)]]}
}

func (e *env) hotOp(i int) op {
	// Walks would always land on one tenant if it were i%tenants.
	return e.hotPick(i, (i+i/walkEvery)%e.w.tenants)
}

// coldOp cycles tenant t through the whole pool from its own offset, so
// a query recurs on a tenant only after every other one.
func (e *env) coldOp(i int) op {
	t := i % e.w.tenants
	pos := (i/e.w.tenants + t*len(e.cold)/e.w.tenants) % len(e.cold)
	return op{kind: kQuery, tenant: t, q: e.cold[pos]}
}

// writerOp is the i-th write over `tenants` tenants round-robin: first
// liveSources adds per tenant, then adds alternate with the delete of
// the source that tenant added liveSources adds earlier.
func (e *env) writerOp(i, tenants int) op {
	fill := liveSources * tenants
	n := i // source number
	if i >= fill {
		k := i - fill
		if k%2 == 1 {
			d := k / 2
			return op{kind: kDelete, tenant: d % tenants, src: &source{id: fmt.Sprintf("m%d", d)}}
		}
		n = fill + k/2
	}
	return op{kind: kIngest, tenant: n % tenants, src: newSource(e.seed, n)}
}

// readerOp is the hot stream with, in every ten ops, one read of the
// tenant's own last acknowledged marker (read-your-writes) and one of
// the next tenant's (isolation: it must find nothing).
func (e *env) readerOp(i int) op {
	t := i % e.w.tenants
	switch i % 10 {
	case 7:
		return op{kind: kQuery, tenant: t, marker: true, owner: t}
	case 3:
		return op{kind: kQuery, tenant: t, marker: true, owner: (t + 1) % e.w.tenants}
	}
	return e.hotPick(i, t)
}

// visitOp is one tenant_churn visit: the digest request that finds the
// tenant closed, then three warm hot-stream ops on it.
func (e *env) visitOp(v int) op {
	t := v % e.w.tenants
	o := op{kind: kColdOpen, tenant: t, q: e.refViews}
	for k := 0; k < 3; k++ {
		o.then = append(o.then, e.hotPick(3*v+k, t))
	}
	return o
}

// Probe streams: fixed-count, sequential, run after the measured phases
// for the op kinds a workload's own streams lack, beside probeTraffic.
// Tenant 1 belongs to the background reader: the probes stay off it, so
// that it is never the reader who pays for a probe's eviction.
func (e *env) probeTenant(i int) int {
	t := i % (e.w.tenants - 1)
	if t >= 1 {
		t++
	}
	return t
}

// probeTraffic is the hot stream on tenant 1, checked but not recorded.
func (e *env) probeTraffic(i int) op {
	o := e.hotPick(i, 1)
	o.quiet = true
	return o
}

func (e *env) walkProbe(i int) op {
	return op{kind: kWalk, tenant: e.probeTenant(i), q: e.hot[0]}
}

func (e *env) coldOpenProbe(i int) op {
	o := op{kind: kColdOpen, tenant: e.probeTenant(i), evict: true}
	// Tenants the run wrote to no longer hold the reference's view count:
	// every tenant of a workload with a writer, else the ingest probe's.
	if !e.w.has[kIngest] && o.tenant != 0 {
		o.q = e.refViews
	}
	return o
}

// ingestProbe writes to tenant 0 only; its first op is an untimed
// digest so that a tenant the LRU had closed is open before the first
// add is timed.
func (e *env) ingestProbe(i int) op {
	if i == 0 {
		return op{kind: kColdOpen, tenant: 0, quiet: true}
	}
	return e.writerOp(i-1, 1)
}

// Probe sizes.
const (
	probeWalks     = 48
	probeColdOpens = 16
	probeIngestOps = 1 + liveSources + 2*46 // one opening digest, 48 adds, 46 deletes
)

// setup brings a fresh daemon to serving state: spawn, then load. Its
// duration is setup_s.
func (w *workload) setup(bin, root string, e *env, conns int) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(bin, root, w.flags(), conns)
	if err != nil {
		return nil, 0, err
	}
	a := &api{do: d.do, tenants: w.tenantNames(), acks: e.acks}
	if err := w.load(a, e); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// load gives every tenant its dataset through the API with sync,
// checkpoints the ones the workload says and closes each tenant again,
// then makes one warm pass of the hot pool so caches, heap and
// connections are in steady state.
//
// The close matters: a tenant that has been evicted or restarted once
// serves from its recovered replicas and has no live source plugins,
// which is the state a long-running daemon is in. Left open, every
// add-source+sync would re-walk the whole synthetic dataset (SyncAll
// covers all registered sources) and ingest would measure the dataset
// generator, about a second per request, instead of the write path.
func (w *workload) load(a *api, e *env) error {
	body := mustJSON(map[string]any{"type": "dataset", "scale": w.scale, "seed": e.seed, "sync": true})
	for t := 0; t < w.tenants; t++ {
		if err := expectOK(a, "POST", a.path(t, "/sources"), body); err != nil {
			return err
		}
		if w.checkpointed(t) {
			if err := expectOK(a, "POST", a.path(t, "/checkpoint"), []byte("{}")); err != nil {
				return err
			}
		}
		if err := expectOK(a, "POST", a.path(t, "/evict"), nil); err != nil {
			return err
		}
	}
	r := &recorder{}
	for t := 0; t < w.tenants; t++ {
		for _, q := range e.hot {
			o := op{kind: kQuery, tenant: t, q: q}
			now := time.Now()
			a.run(&o, now, now, r)
		}
	}
	if r.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d answers wrong: %v", r.failed, r.attempted, r.notes)
	}
	return nil
}

func expectOK(a *api, method, path string, body []byte) error {
	var resp bytes.Buffer
	status, err := a.do(method, path, body, &resp)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d err %v: %.200s", method, path, status, err, resp.Bytes())
	}
	return nil
}
