package iql

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/oidset"
)

// parThreshold is the minimum number of items a data-parallel stage must
// carry before the evaluator fans it out across workers; below it the
// goroutine and merge overhead exceeds the work saved.
const parThreshold = 64

// parRange splits [0, n) into w contiguous shards and runs fn(worker,
// lo, hi) on each concurrently. With w <= 1 it runs inline, so serial
// execution takes no goroutine at all.
func parRange(n, w int, fn func(worker, lo, hi int)) {
	if w <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			fn(worker, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
}

// workerSpan starts a per-worker span under parent for one parRange
// shard. Spans are only worth their cost when the stage actually fanned
// out, so a serial stage (w <= 1) records none — the parent span already
// carries its timing.
func workerSpan(parent *obs.Span, w, worker, lo, hi int) *obs.Span {
	if parent == nil || w <= 1 {
		return nil
	}
	ws := startSpan(parent, "worker %d", worker)
	ws.SetInt("from", int64(lo))
	ws.SetInt("to", int64(hi))
	return ws
}

// errBudget reports an exceeded expansion budget.
var errBudget = errors.New("iql: expansion budget exceeded")

// expansionBudget bounds the views touched during one expansion, shared
// atomically by all workers. The budget may be consumed in full before
// an overrun is reported: with Budget = N the N-th view is still
// processed and only the N+1-th fails.
type expansionBudget struct{ left atomic.Int64 }

func newBudget(n int) *expansionBudget {
	b := &expansionBudget{}
	b.left.Store(int64(n))
	return b
}

// take consumes n units and reports whether the budget still holds.
func (b *expansionBudget) take(n int) bool { return b.left.Add(-int64(n)) >= 0 }

// expandChild returns the views matching step among the children of the
// cur views (the '/' axis) and the number of child edges traversed.
// Children reached over several edges are counted per edge, as the
// serial evaluator always did.
func (c *evalCtx) expandChild(step Step, cur []catalog.OID, bud *expansionBudget, sp *obs.Span) (*oidset.Set, int, error) {
	c.plan.maxFrontier(len(cur))
	w := c.workers(len(cur), costChildEdge+stepMatchCost(step))
	sets := make([]*oidset.Set, w)
	edges := make([]int, w)
	var overrun atomic.Bool
	parRange(len(cur), w, func(worker, lo, hi int) {
		ws := workerSpan(sp, w, worker, lo, hi)
		local := oidset.New(0)
		var buf []catalog.OID
		for _, oid := range cur[lo:hi] {
			buf = c.children(buf[:0], oid)
			edges[worker] += len(buf)
			if !bud.take(len(buf)) {
				overrun.Store(true)
				break
			}
			for _, ch := range buf {
				if c.matchStep(step, ch) {
					local.Add(ch)
				}
			}
		}
		sets[worker] = local
		ws.SetInt("edges", int64(edges[worker]))
		ws.Finish()
	})
	touched := 0
	for _, n := range edges {
		touched += n
	}
	if overrun.Load() {
		return nil, touched, errBudget
	}
	matched := sets[0]
	for _, s := range sets[1:] {
		matched.UnionWith(s)
	}
	return matched, touched, nil
}

// expandDescendant returns the views matching step among all views
// reachable from cur through group edges (the '//' axis), cycle-safe,
// and the number of distinct views discovered. The BFS is
// level-synchronous: each frontier is sharded across workers, the
// workers' discoveries are deduplicated against the shared visited set
// at the level barrier (so counters and the budget see each view exactly
// once, as in serial execution), and predicate matching then runs
// sharded over the newly discovered views.
func (c *evalCtx) expandDescendant(step Step, cur []catalog.OID, bud *expansionBudget, sp *obs.Span) (*oidset.Set, int, error) {
	matched := oidset.New(0)
	visited := oidset.New(0)
	touched := 0
	frontier := cur
	for level := 1; len(frontier) > 0; level++ {
		c.plan.maxFrontier(len(frontier))
		lv := startSpan(sp, "level %d", level)
		lv.SetInt("frontier", int64(len(frontier)))
		// Phase 1: sharded child discovery. visited is read-only here;
		// worker-local seen sets keep shard-internal duplicates out.
		w := c.workers(len(frontier), costChildEdge)
		found := make([][]catalog.OID, w)
		parRange(len(frontier), w, func(worker, lo, hi int) {
			ws := workerSpan(lv, w, worker, lo, hi)
			seen := oidset.New(0)
			var buf, out []catalog.OID
			for _, oid := range frontier[lo:hi] {
				buf = c.children(buf[:0], oid)
				for _, ch := range buf {
					if visited.Contains(ch) || !seen.Add(ch) {
						continue
					}
					out = append(out, ch)
				}
			}
			found[worker] = out
			ws.SetInt("discovered", int64(len(out)))
			ws.Finish()
		})
		// Barrier: global dedup in worker order keeps the traversal
		// deterministic.
		var next []catalog.OID
		for _, out := range found {
			for _, ch := range out {
				if visited.Add(ch) {
					next = append(next, ch)
				}
			}
		}
		touched += len(next)
		lv.SetInt("discovered", int64(len(next)))
		if !bud.take(len(next)) {
			lv.Set("error", errBudget.Error())
			lv.Finish()
			return nil, touched, errBudget
		}
		// Phase 2: sharded predicate matching over the new views.
		w = c.workers(len(next), stepMatchCost(step))
		sets := make([]*oidset.Set, w)
		parRange(len(next), w, func(worker, lo, hi int) {
			local := oidset.New(0)
			for _, ch := range next[lo:hi] {
				if c.matchStep(step, ch) {
					local.Add(ch)
				}
			}
			sets[worker] = local
		})
		for _, s := range sets {
			matched.UnionWith(s)
		}
		lv.Finish()
		frontier = next
	}
	return matched, touched, nil
}

// filterStep applies a step's full pattern + predicate filter to a
// candidate list, sharding across workers when the list is large.
// Output order follows input order: shards are contiguous and
// concatenated in shard order, so a sorted input stays sorted.
func (c *evalCtx) filterStep(s Step, candidates []catalog.OID, sp *obs.Span) []catalog.OID {
	w := c.workers(len(candidates), stepMatchCost(s))
	if w == 1 {
		out := candidates[:0:0]
		for _, oid := range candidates {
			if c.matchStep(s, oid) {
				out = append(out, oid)
			}
		}
		return out
	}
	parts := make([][]catalog.OID, w)
	parRange(len(candidates), w, func(worker, lo, hi int) {
		ws := workerSpan(sp, w, worker, lo, hi)
		var out []catalog.OID
		for _, oid := range candidates[lo:hi] {
			if c.matchStep(s, oid) {
				out = append(out, oid)
			}
		}
		parts[worker] = out
		ws.SetInt("matches", int64(len(out)))
		ws.Finish()
	})
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]catalog.OID, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
