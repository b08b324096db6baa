package iql

import (
	"repro/internal/core"
)

// Cost model: coarse per-item work units the planner uses to compare
// strategies and to decide when a stage carries enough work to be worth
// fanning out. The absolute scale is arbitrary; one unit is roughly one
// memoized bitset probe.
const (
	// costBitsetProbe is a phrase/class membership test against a
	// memoized index set.
	costBitsetProbe = 1
	// costNameMatch is one wildcard match against a replicated name.
	costNameMatch = 4
	// costTupleFetch is one tuple-replica fetch plus a comparison.
	costTupleFetch = 16
	// costHasBranch is one has()-branch expansion (itself a bounded
	// sub-query).
	costHasBranch = 256
	// costChildEdge is traversing one group-replica edge.
	costChildEdge = 2
	// costVerifyAncestor is verifying one backward candidate that DOES
	// have a matching ancestor: the walk exits as soon as the ancestor
	// is found.
	costVerifyAncestor = 64
	// costVerifyMiss is the extra cost of a backward candidate whose
	// verification fails: proving the absence of a matching ancestor
	// walks the candidate's entire ancestor closure once (it is not
	// repeated per step), which on deep or DAG-shaped stores dwarfs the
	// early-exit hit cost. Candidates outside the first anchor's reach
	// are guaranteed misses, which is how the planner estimates how many
	// candidates pay this.
	costVerifyMiss = 64
)

// exprCost estimates the per-view work units of evaluating a predicate.
func exprCost(e Expr) int {
	switch x := e.(type) {
	case nil:
		return 0
	case *AndExpr:
		return exprCost(x.L) + exprCost(x.R)
	case *OrExpr:
		return exprCost(x.L) + exprCost(x.R)
	case *NotExpr:
		return exprCost(x.E)
	case *PhraseExpr:
		return costBitsetProbe
	case *ClassExpr:
		return costBitsetProbe
	case *HasExpr:
		return costHasBranch
	case *CmpExpr:
		if x.Attr == "name" {
			return costNameMatch
		}
		return costTupleFetch
	default:
		return costTupleFetch
	}
}

// stepMatchCost estimates the per-view work units of matchStep for one
// step (name pattern plus full predicate).
func stepMatchCost(s Step) int {
	cost := 0
	if !s.AnyName() {
		cost += costNameMatch
	}
	cost += exprCost(s.Pred)
	if cost < 1 {
		cost = 1
	}
	return cost
}

// estimateStep bounds the number of views matching one step using only
// statistics (no index materialization): the minimum over the step's
// index-supported constraints, or the store's view count when nothing
// constrains.
func (c *evalCtx) estimateStep(s Step) int {
	est := c.store.Count()
	apply := func(n int) {
		if n < est {
			est = n
		}
	}
	if !s.AnyName() {
		if n, ok := c.store.EstimateNamePattern(s.Pattern); ok {
			apply(n)
		}
	}
	for _, conj := range conjuncts(s.Pred) {
		switch x := conj.(type) {
		case *PhraseExpr:
			apply(c.store.EstimatePhrase(x.Phrase))
		case *ClassExpr:
			apply(c.store.EstimateClass(x.Class))
		case *CmpExpr:
			if x.Attr == "name" {
				if x.Op == OpEq && x.Value.Kind == core.DomainString {
					if n, ok := c.store.EstimateNamePattern(x.Value.Str); ok {
						apply(n)
					}
				}
				continue
			}
			if op, ok := tupleOp(x.Op); ok {
				apply(c.store.EstimateTuple(x.Attr, op, x.Value))
			}
		}
	}
	if est < 0 {
		est = 0
	}
	return est
}

// estimateQuery bounds the number of result rows of a query node from
// statistics alone. Every path result matches the path's last step, so
// a path estimates as its final step; unions sum (capped at the view
// count); joins bound by the smaller input (a coarse equi-join
// heuristic — many-to-many joins can exceed it, and the bound is only
// used for ordering decisions, never for correctness). Results are
// memoized per AST node: union branches and join inputs may re-ask
// concurrently, so the memo shares the ctx memo lock.
func (c *evalCtx) estimateQuery(q Query) int {
	c.memoMu.RLock()
	n, ok := c.estimates[q]
	c.memoMu.RUnlock()
	if ok {
		return n
	}
	if n, ok := c.shared.estimate(q, c.sharedVersion); ok {
		c.memoMu.Lock()
		c.estimates[q] = n
		c.memoMu.Unlock()
		return n
	}
	n = c.estimateQueryUncached(q)
	c.memoMu.Lock()
	c.estimates[q] = n
	c.memoMu.Unlock()
	c.shared.storeEstimate(q, c.sharedVersion, n)
	return n
}

func (c *evalCtx) estimateQueryUncached(q Query) int {
	switch x := q.(type) {
	case *PredQuery:
		return c.estimateStep(Step{Axis: Descendant, Pred: x.Pred})
	case *PathQuery:
		if len(x.Steps) == 0 {
			return 0
		}
		return c.estimateStep(x.Steps[len(x.Steps)-1])
	case *UnionQuery:
		sum := 0
		for _, a := range x.Args {
			sum += c.estimateQuery(a)
		}
		if total := c.store.Count(); sum > total {
			sum = total
		}
		return sum
	case *JoinQuery:
		l, r := c.estimateQuery(x.Left), c.estimateQuery(x.Right)
		if l < r {
			return l
		}
		return r
	default:
		return c.store.Count()
	}
}
