package iql

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oidset"
	"repro/internal/tupleindex"
	"repro/internal/wildcard"
)

// Store is the interface the evaluator needs from the Resource View
// Manager: replica/index-backed lookups, graph navigation over the group
// replica, and the cardinality statistics the planner estimates
// from. Implementations must be safe for concurrent readers —
// the engine fans query stages out across workers.
type Store interface {
	// AllOIDs returns every managed OID in ascending order.
	AllOIDs() []catalog.OID
	// Count returns the number of managed views.
	Count() int
	// NameOf returns the replicated name component of oid.
	NameOf(oid catalog.OID) string
	// Entry returns the catalog entry of oid.
	Entry(oid catalog.OID) (catalog.Entry, error)
	// Children returns the directly related views of oid.
	Children(oid catalog.OID) []catalog.OID
	// Parents returns the views directly relating to oid.
	Parents(oid catalog.OID) []catalog.OID
	// MatchNames returns views whose name matches the wildcard pattern.
	MatchNames(pattern string) []catalog.OID
	// ContentPhrase returns views whose content contains the phrase.
	ContentPhrase(phrase string) []catalog.OID
	// ContentPhraseFreqs returns per-view phrase occurrence counts for
	// result ranking.
	ContentPhraseFreqs(phrase string) map[catalog.OID]int
	// TupleQuery returns views whose attribute satisfies (op, value).
	// The result must be exact — the set of views for which Tuple's
	// component yields a satisfying value under Get — so the planner
	// may answer a pushed-down comparison from the index alone
	// (schemas therefore must not repeat an attribute name).
	TupleQuery(attr string, op tupleindex.Op, value core.Value) []catalog.OID
	// Tuple returns the replicated tuple component of oid.
	Tuple(oid catalog.OID) (core.TupleComponent, bool)
	// OIDsInClass returns views whose class is the named class or a
	// specialization of it.
	OIDsInClass(class string) []catalog.OID

	// The Estimate* methods are the statistics the cost-based planner
	// reads before execution. Each must be O(1) or O(log n) against
	// index metadata (posting-list lengths, column spans, class-member
	// counts) — an estimate that costs as much as the lookup it predicts
	// is useless. Estimates are upper bounds, never exact guarantees:
	// the planner uses them to order work and pick strategies, and
	// execution stays exact regardless of estimation error.

	// EstimatePhrase bounds the number of views whose content contains
	// the phrase (min posting-list length over the phrase's tokens).
	EstimatePhrase(phrase string) int
	// EstimateClass bounds the number of views in the class or a
	// specialization of it.
	EstimateClass(class string) int
	// EstimateNamePattern bounds the number of views whose name matches
	// the pattern. ok is false when the pattern needs a scan to count
	// (wildcards); exact-name patterns answer from the name replica's
	// exact-match lane in O(1).
	EstimateNamePattern(pattern string) (n int, ok bool)
	// EstimateTuple bounds the number of views whose attribute
	// satisfies (op, value), from the sorted column span.
	EstimateTuple(attr string, op tupleindex.Op, value core.Value) int
	// EstimateReach bounds the number of views reachable from the given
	// views through group edges (the cost of one '//' expansion),
	// capped at the store's view count.
	EstimateReach(oids []catalog.OID) int
}

// childAppender is an optional Store fast path: append oid's children
// into a caller-owned buffer instead of allocating a fresh slice per
// call. rvm.Manager implements it; the expansion loops reuse one buffer
// per worker.
type childAppender interface {
	AppendChildren(dst []catalog.OID, oid catalog.OID) []catalog.OID
}

// Expansion selects the path-evaluation strategy. The paper's prototype
// uses forward expansion and names backward/bidirectional expansion as
// the planned fix for Q8-style queries (§7.2); both are implemented
// here, plus a cardinality-based automatic choice.
type Expansion int

// Expansion strategies.
const (
	ForwardExpansion Expansion = iota
	BackwardExpansion
	AutoExpansion
)

func (e Expansion) String() string {
	switch e {
	case ForwardExpansion:
		return "forward"
	case BackwardExpansion:
		return "backward"
	default:
		return "auto"
	}
}

// PlanInfo records the planner's decisions, for EXPLAIN-style
// output and for the evaluation harness (Figure 6 discusses Q8's
// intermediate-result blow-up). One PlanInfo is shared by all workers of
// a query: the counters are updated atomically and the notes under a
// mutex, so reads are exact once the query returns. Note order may vary
// between runs when stages execute concurrently.
type PlanInfo struct {
	mu    sync.Mutex
	Notes []string
	// Strategy is the physical strategy of the top-level query node:
	// the chosen expansion direction for paths ("forward", "backward",
	// "single step"), or the operator name ("predicate", "union",
	// "join").
	Strategy string
	// Intermediates counts views touched during path expansion beyond
	// those in the final result.
	Intermediates int64
	// IndexAccesses counts index-backed candidate fetches.
	IndexAccesses int64
	// EstimatedRows is the planner's pre-execution result-size bound
	// (statistics only).
	EstimatedRows int64
	// ParallelStages / SerialStages count the planner's per-stage
	// serial-vs-parallel decisions during this query.
	ParallelStages int64
	SerialStages   int64
	// Pushdowns counts predicate conjuncts answered by an index scan
	// ahead of path expansion.
	Pushdowns int64
	// ResidualSkips counts step resolutions whose residual filter the
	// planner elided because the index intersection already
	// covered the step exactly.
	ResidualSkips int64
	// RowsScanned counts candidate views examined by residual filters,
	// including full catalog scans (the per-query analogue of a row-scan
	// counter).
	RowsScanned int64
	// PostingsRead counts index postings materialized from the name,
	// content, tuple and class indexes (each memoized lookup counted
	// once, at materialization).
	PostingsRead int64
	// ResidualFilters counts residual-filter stages that actually ran
	// (resolved steps minus ResidualSkips).
	ResidualFilters int64
	// PeakFrontier is the largest expansion frontier any stage of this
	// query carried — the memory high-water mark of BFS expansion.
	PeakFrontier int64
	// StaleSources names the degraded sources whose replicated views
	// this query may have been answered from: their last sync failed,
	// so the result reflects the last good synchronization (graceful
	// degradation rather than a failed query). Empty when every source
	// is healthy.
	StaleSources []string
}

func (p *PlanInfo) notef(format string, args ...any) {
	p.note(fmt.Sprintf(format, args...))
}

// note appends a preformatted message. The planner notes emitted on
// every query build their strings with strconv appends and
// call this directly: fmt.Sprintf there is measurable overhead on
// microsecond-scale queries.
func (p *PlanInfo) note(msg string) {
	p.mu.Lock()
	p.Notes = append(p.Notes, msg)
	p.mu.Unlock()
}

func (p *PlanInfo) setStrategy(s string) {
	p.mu.Lock()
	p.Strategy = s
	p.mu.Unlock()
}

func (p *PlanInfo) addIntermediates(n int)  { atomic.AddInt64(&p.Intermediates, int64(n)) }
func (p *PlanInfo) addIndexAccesses(n int)  { atomic.AddInt64(&p.IndexAccesses, int64(n)) }
func (p *PlanInfo) addParallelStages(n int) { atomic.AddInt64(&p.ParallelStages, int64(n)) }
func (p *PlanInfo) addSerialStages(n int)   { atomic.AddInt64(&p.SerialStages, int64(n)) }
func (p *PlanInfo) addPushdowns(n int)      { atomic.AddInt64(&p.Pushdowns, int64(n)) }
func (p *PlanInfo) addResidualSkips(n int)  { atomic.AddInt64(&p.ResidualSkips, int64(n)) }
func (p *PlanInfo) addRowsScanned(n int)    { atomic.AddInt64(&p.RowsScanned, int64(n)) }
func (p *PlanInfo) addPostingsRead(n int)   { atomic.AddInt64(&p.PostingsRead, int64(n)) }
func (p *PlanInfo) addResidualFilters(n int) {
	atomic.AddInt64(&p.ResidualFilters, int64(n))
}

// maxFrontier lifts PeakFrontier to n if larger (atomic max; expansion
// stages may run concurrently).
func (p *PlanInfo) maxFrontier(n int) {
	v := int64(n)
	for {
		cur := atomic.LoadInt64(&p.PeakFrontier)
		if v <= cur || atomic.CompareAndSwapInt64(&p.PeakFrontier, cur, v) {
			return
		}
	}
}

// String renders the plan notes one per line.
func (p *PlanInfo) String() string { return strings.Join(p.Notes, "\n") }

// indexSet is one memoized index lookup in both representations the
// evaluator needs: a bitset for per-OID membership tests in predicate
// evaluation and a sorted slice for candidate-list intersection.
type indexSet struct {
	set    *oidset.Set
	sorted []catalog.OID
}

func newIndexSet(oids []catalog.OID) *indexSet {
	if !sort.SliceIsSorted(oids, func(i, j int) bool { return oids[i] < oids[j] }) {
		sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	}
	return &indexSet{set: oidset.FromSlice(oids), sorted: oids}
}

// evalCtx carries per-query state: memoized index lookups (shared by all
// workers of the query, guarded by memoMu) and the worker ceiling.
type evalCtx struct {
	store Store
	plan  *PlanInfo
	// effPar is the planner's worker ceiling: the configured parallelism
	// clamped by the schedulable CPUs (>= 1).
	effPar int
	// children appends oid's directly related views to dst, using the
	// store's append fast path when available.
	children func(dst []catalog.OID, oid catalog.OID) []catalog.OID

	memoMu sync.RWMutex
	// phraseSets memoizes content-index phrase results.
	phraseSets map[string]*indexSet
	// classSets memoizes specialization-aware class membership.
	classSets map[string]*indexSet
	// nameSets memoizes name-replica pattern matches.
	nameSets map[string]*indexSet
	// tupleSets memoizes tuple-index range results, keyed attr|op|text.
	tupleSets map[string]*indexSet
	// estimates memoizes estimateQuery per AST node: the plan header,
	// union ordering, join build-side choice and path direction choice
	// all ask for overlapping estimates, and on microsecond-scale
	// queries recomputing them is measurable planner overhead.
	estimates map[Query]int
	// shared is the engine's cross-execution plan cache (nil when the
	// store has no dataspace version to invalidate on); sharedVersion
	// is the dataspace version captured when this execution started.
	shared        *planCache
	sharedVersion uint64
}

func newEvalCtx(store Store, plan *PlanInfo, effPar int) *evalCtx {
	if effPar < 1 {
		effPar = 1
	}
	c := &evalCtx{
		store:      store,
		plan:       plan,
		effPar:     effPar,
		phraseSets: make(map[string]*indexSet),
		classSets:  make(map[string]*indexSet),
		nameSets:   make(map[string]*indexSet),
		tupleSets:  make(map[string]*indexSet),
		estimates:  make(map[Query]int),
	}
	if ap, ok := store.(childAppender); ok {
		c.children = ap.AppendChildren
	} else {
		c.children = func(dst []catalog.OID, oid catalog.OID) []catalog.OID {
			return append(dst, store.Children(oid)...)
		}
	}
	return c
}

func (c *evalCtx) phraseSet(phrase string) *indexSet {
	key := strings.ToLower(phrase)
	c.memoMu.RLock()
	s, ok := c.phraseSets[key]
	c.memoMu.RUnlock()
	if ok {
		return s
	}
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if s, ok := c.phraseSets[key]; ok {
		return s
	}
	c.plan.addIndexAccesses(1)
	s = newIndexSet(c.store.ContentPhrase(phrase))
	c.plan.addPostingsRead(len(s.sorted))
	c.phraseSets[key] = s
	return s
}

func (c *evalCtx) classSet(class string) *indexSet {
	c.memoMu.RLock()
	s, ok := c.classSets[class]
	c.memoMu.RUnlock()
	if ok {
		return s
	}
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if s, ok := c.classSets[class]; ok {
		return s
	}
	c.plan.addIndexAccesses(1)
	s = newIndexSet(c.store.OIDsInClass(class))
	c.plan.addPostingsRead(len(s.sorted))
	c.classSets[class] = s
	return s
}

func (c *evalCtx) nameSet(pattern string) *indexSet {
	key := strings.ToLower(pattern)
	c.memoMu.RLock()
	s, ok := c.nameSets[key]
	c.memoMu.RUnlock()
	if ok {
		return s
	}
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if s, ok := c.nameSets[key]; ok {
		return s
	}
	c.plan.addIndexAccesses(1)
	s = newIndexSet(c.store.MatchNames(pattern))
	c.plan.addPostingsRead(len(s.sorted))
	c.nameSets[key] = s
	return s
}

func (c *evalCtx) tupleSet(attr string, cmp CmpOp, op tupleindex.Op, value core.Value, text string) *indexSet {
	key := attr + "\x00" + cmp.String() + "\x00" + text
	c.memoMu.RLock()
	s, ok := c.tupleSets[key]
	c.memoMu.RUnlock()
	if ok {
		return s
	}
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if s, ok := c.tupleSets[key]; ok {
		return s
	}
	c.plan.addIndexAccesses(1)
	s = newIndexSet(c.store.TupleQuery(attr, op, value))
	c.plan.addPostingsRead(len(s.sorted))
	c.tupleSets[key] = s
	return s
}

// evalExpr evaluates a predicate for one view.
func (c *evalCtx) evalExpr(e Expr, oid catalog.OID) bool {
	switch x := e.(type) {
	case *AndExpr:
		return c.evalExpr(x.L, oid) && c.evalExpr(x.R, oid)
	case *OrExpr:
		return c.evalExpr(x.L, oid) || c.evalExpr(x.R, oid)
	case *NotExpr:
		return !c.evalExpr(x.E, oid)
	case *PhraseExpr:
		return c.phraseSet(x.Phrase).set.Contains(oid)
	case *ClassExpr:
		return c.classSet(x.Class).set.Contains(oid)
	case *HasExpr:
		return c.hasBranch(x.Steps, oid)
	case *CmpExpr:
		// The pseudo-attribute "name" compares against the η component
		// (with wildcard semantics for = and !=), extending search to
		// components beyond χ and τ.
		if x.Attr == "name" && x.Value.Kind == core.DomainString {
			matched := wildcard.Match(x.Value.Str, c.store.NameOf(oid))
			switch x.Op {
			case OpEq:
				return matched
			case OpNe:
				return !matched
			default:
				return false
			}
		}
		tc, ok := c.store.Tuple(oid)
		if !ok {
			return false
		}
		v, ok := tc.Get(x.Attr)
		if !ok {
			return false
		}
		cmp, err := core.Compare(v, x.Value)
		if err != nil {
			return false
		}
		switch x.Op {
		case OpEq:
			return cmp == 0
		case OpNe:
			return cmp != 0
		case OpLt:
			return cmp < 0
		case OpLe:
			return cmp <= 0
		case OpGt:
			return cmp > 0
		case OpGe:
			return cmp >= 0
		}
	}
	return false
}

// hasBranchBudget bounds the views touched by one has() evaluation.
const hasBranchBudget = 1 << 16

// hasBranch evaluates an existence branch relative to one view: it
// follows the steps from oid and reports whether any view matches the
// full branch path. It shares the frontier-parallel expansion helpers
// with forward path evaluation; an exhausted branch budget reports
// non-existence rather than failing the query.
func (c *evalCtx) hasBranch(steps []Step, oid catalog.OID) bool {
	cur := []catalog.OID{oid}
	bud := newBudget(hasBranchBudget)
	for _, s := range steps {
		var matched *oidset.Set
		var err error
		switch s.Axis {
		case Child:
			matched, _, err = c.expandChild(s, cur, bud, nil)
		case Descendant:
			matched, _, err = c.expandDescendant(s, cur, bud, nil)
		}
		if err != nil || matched == nil || matched.Len() == 0 {
			return false
		}
		cur = matched.Slice()
	}
	return true
}

// matchStep reports whether a view satisfies a step's name pattern and
// predicate.
func (c *evalCtx) matchStep(s Step, oid catalog.OID) bool {
	if !s.AnyName() && !WildcardMatch(s.Pattern, c.store.NameOf(oid)) {
		return false
	}
	if s.Pred != nil && !c.evalExpr(s.Pred, oid) {
		return false
	}
	return true
}

// resolveStep returns all views in the dataspace matching a step's
// pattern and predicate, intersecting every index that answers one of
// its constraints and falling back to a scan when none does. The final
// residual filter shards across workers when the candidate list is
// large.
func (c *evalCtx) resolveStep(s Step, sp *obs.Span) []catalog.OID {
	var candidates []catalog.OID
	constrained := false
	// covered tracks whether the intersected index sets are exactly the
	// step's match set: every pushed conjunct is an exact index answer
	// (phrase/class sets, name-replica matches and tuple-column spans
	// all are), and no conjunct stayed behind. The name pattern is
	// always covered: AnyName needs no check, and any other pattern is
	// pushed through the name replica below.
	covered := true

	intersect := func(oids []catalog.OID, why string) {
		c.plan.addPushdowns(1)
		c.plan.notef("  index: %s → %d candidates", why, len(oids))
		if is := startSpan(sp, "index %s", why); is != nil {
			is.SetInt("candidates", int64(len(oids)))
			is.Finish()
		}
		if !constrained {
			candidates = oids
			constrained = true
			return
		}
		candidates = intersectSorted(candidates, oids)
	}

	if !s.AnyName() {
		set := c.nameSet(s.Pattern)
		intersect(set.sorted, fmt.Sprintf("name replica match %q", s.Pattern))
	}
	// Pull index-supported conjuncts out of the predicate. The full
	// predicate is still applied below, so over-approximation is safe.
	for _, conj := range conjuncts(s.Pred) {
		switch x := conj.(type) {
		case *PhraseExpr:
			set := c.phraseSet(x.Phrase)
			intersect(set.sorted, fmt.Sprintf("content index phrase %q", x.Phrase))
		case *ClassExpr:
			set := c.classSet(x.Class)
			intersect(set.sorted, fmt.Sprintf("class lookup %q", x.Class))
		case *CmpExpr:
			if x.Attr == "name" && x.Op == OpEq && x.Value.Kind == core.DomainString {
				set := c.nameSet(x.Value.Str)
				intersect(set.sorted, fmt.Sprintf("name replica match %q (name predicate)", x.Value.Str))
				continue
			}
			if x.Attr == "name" {
				covered = false
				continue // inequality on names: final filter only
			}
			if op, ok := tupleOp(x.Op); ok {
				set := c.tupleSet(x.Attr, x.Op, op, x.Value, x.ValueText)
				intersect(set.sorted, fmt.Sprintf("tuple index %s %s %s", x.Attr, x.Op, x.ValueText))
			} else {
				covered = false
			}
		default:
			// OR / NOT / has() conjuncts have no exact index answer.
			covered = false
		}
	}
	if !constrained {
		candidates = c.store.AllOIDs()
		c.plan.notef("  scan: no applicable index, %d views", len(candidates))
		sp.Set("access", "full scan")
		covered = false
	}
	if covered {
		// Every constraint of the step was answered exactly by the index
		// intersection: the residual filter would re-check what the
		// indexes already guarantee, so the planner elides it.
		c.plan.addResidualSkips(1)
		c.plan.notef("  planner: residual filter elided (step fully index-covered)")
		sp.Set("residual", "elided (index-covered)")
		return candidates
	}
	// Final exact filter (pattern + full predicate).
	c.plan.addResidualFilters(1)
	c.plan.addRowsScanned(len(candidates))
	rf := startSpan(sp, "residual filter")
	rf.SetInt("candidates", int64(len(candidates)))
	out := c.filterStep(s, candidates, rf)
	rf.SetInt("matches", int64(len(out)))
	rf.Finish()
	return out
}

// conjuncts flattens the top-level AND tree of an expression.
func conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*AndExpr); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []Expr{e}
}

func tupleOp(op CmpOp) (tupleindex.Op, bool) {
	switch op {
	case OpEq:
		return tupleindex.EQ, true
	case OpNe:
		return tupleindex.NE, true
	case OpLt:
		return tupleindex.LT, true
	case OpLe:
		return tupleindex.LE, true
	case OpGt:
		return tupleindex.GT, true
	case OpGe:
		return tupleindex.GE, true
	default:
		return 0, false
	}
}

func intersectSorted(a, b []catalog.OID) []catalog.OID {
	var out []catalog.OID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// WildcardMatch reports whether name matches pattern; see
// internal/wildcard for the semantics.
func WildcardMatch(pattern, name string) bool {
	return wildcard.Match(pattern, name)
}
