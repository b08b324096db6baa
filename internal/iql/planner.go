package iql

import (
	"runtime"

	"repro/internal/catalog"
)

// PlannerMode selected the physical decision maker; it is kept because
// the benchmark module still sets Options.Planner.
//
// Deprecated: ignored; the engine always plans by cost.
type PlannerMode int

// PlannerAdaptive named the cost-based planner.
//
// Deprecated: ignored; the engine always plans by cost.
const PlannerAdaptive PlannerMode = 1

// parCrossover is the estimated work (items × per-item cost units) a
// stage must carry before the planner fans it out. Calibrated against
// this engine's stage overhead: spawning and joining a worker group
// costs a few microseconds, one cost unit is a few nanoseconds, so below
// ~16k units the goroutine and merge overhead exceeds the work saved
// (the measured crossover sits between 10k and 50k units; see docs/IQL.md
// "Cost-based planning"). A variable only so tests can zero it
// (ForceFanOut) and force every eligible stage parallel.
var parCrossover = 1 << 14

// ForceFanOut zeroes the work crossover until the returned function
// restores it, so every stage with parThreshold items and every union or
// join fans out up to the worker ceiling. It is a hook for the test
// suites of the packages built on this one, whose inputs are too small
// to clear the crossover (the package is internal, so it is no API).
// Call it before any query runs and restore after the last one returns.
func ForceFanOut() (restore func()) {
	old := parCrossover
	parCrossover = 0
	return func() { parCrossover = old }
}

// effectiveParallelism is the worker ceiling the planner will actually
// fan out to: the configured parallelism clamped by the schedulable
// CPUs (PlannerProcs overrides the CPU count, for tests that exercise
// parallel plans on small machines). Oversubscribing a box never helps a
// CPU-bound stage — goroutines beyond the core count only multiplex and
// add merge overhead, which is exactly the regression the planner
// exists to avoid.
func (o Options) effectiveParallelism() int {
	procs := o.PlannerProcs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
		if n := runtime.NumCPU(); n < procs {
			procs = n
		}
	}
	if o.Parallelism < procs {
		procs = o.Parallelism
	}
	if procs < 1 {
		procs = 1
	}
	return procs
}

// workers decides the worker count for one data-parallel stage of n
// items costing perItem work units each: the stage fans out only when
// it has parThreshold items and its estimated work clears parCrossover,
// and never beyond the effective (CPU-clamped) parallelism. Every call
// is one planner stage decision, counted on the plan for the
// idm_planner_* metrics.
func (c *evalCtx) workers(n, perItem int) int {
	if c.effPar <= 1 || n < parThreshold || n*max(perItem, 1) < parCrossover {
		c.plan.addSerialStages(1)
		return 1
	}
	c.plan.addParallelStages(1)
	return min(c.effPar, n)
}

// concurrentBranches reports whether independent sub-queries (union
// branches, join inputs) should evaluate concurrently: only when the
// worker ceiling allows it and their combined work clears the same
// crossover data-parallel stages use. A branch's work is taken as its
// estimated row count, one unit per row — a floor, since every row
// costs at least one probe. The floor is deliberate: goroutines running
// whole sub-queries contend on the store's shared locks and counters,
// so the paper's Q8 (two wildcard-anchored join inputs, ~7k estimated
// rows at scale 0.05) measured slower concurrent than serial, and only
// its 10x-scale shape (~126k) gains. The estimates are memoized per
// query, and a ceiling of 1 answers before reading any, so serial
// engines pay nothing for the decision. Above that ceiling every call is
// one planner stage decision, counted like workers' so the
// idm_planner_* parallel/serial ratio covers branches too.
func (c *evalCtx) concurrentBranches(qs ...Query) bool {
	if c.effPar <= 1 {
		return false
	}
	work := 0
	for _, q := range qs {
		work += c.estimateQuery(q)
	}
	if work < parCrossover {
		c.plan.addSerialStages(1)
		return false
	}
	c.plan.addParallelStages(1)
	return true
}

// pathChoice is the planner's decision for one path query.
type pathChoice struct {
	strategy Expansion
	estLast  int
	reach    int
	fwdCost  int
	bwdCost  int
	reason   string
}

// choosePathStrategy picks forward vs backward expansion for a path
// whose first anchor has been resolved. Forward expansion touches
// every view reachable from the first anchor's matches; backward
// expansion verifies each last-anchor candidate by walking its
// ancestors. The decision compares estimated total work rather than
// raw candidate counts — a 1-view first anchor rooting a 10k-view
// subtree should still expand backward when the last anchor is
// selective. The last anchor is deliberately NOT resolved here: its
// cardinality comes from statistics, so the unchosen direction's
// anchor (which can cost a full wildcard name scan) is never
// materialized.
func (c *evalCtx) choosePathStrategy(q *PathQuery, first []catalog.OID) pathChoice {
	steps := q.Steps
	reach := c.store.EstimateReach(first)
	estLast := c.estimateQuery(q)
	match := 1
	for _, s := range steps[1:] {
		if sc := stepMatchCost(s); sc > match {
			match = sc
		}
	}
	fwd := reach * (costChildEdge + match)
	// Backward verification is asymmetric: a candidate under the first
	// anchor finds its ancestor quickly (early exit), while a candidate
	// outside the anchor's reach must walk its whole ancestor closure to
	// prove the miss. Candidates are assumed uniformly distributed, so
	// the expected miss count is the fraction of the store outside the
	// anchor's reach.
	outside := estLast
	if total := c.store.Count(); reach >= total {
		outside = 0
	} else if total > 0 {
		outside = estLast * (total - reach) / total
	}
	bwd := estLast*(len(steps)-1)*costVerifyAncestor + outside*costVerifyMiss
	if bwd <= fwd {
		return pathChoice{strategy: BackwardExpansion, estLast: estLast, reach: reach, fwdCost: fwd, bwdCost: bwd,
			reason: "backward verification cheaper than forward reach"}
	}
	return pathChoice{strategy: ForwardExpansion, estLast: estLast, reach: reach, fwdCost: fwd, bwdCost: bwd,
		reason: "forward reach cheaper than backward verification"}
}
