package idm

import "repro/internal/iql"

// ClearQueryCache empties the system's query cache, so the next query
// misses; benches call it outside the timed region.
func ClearQueryCache(s *System) { s.cache.clear() }

// LiftCPUClamp rebuilds s's iQL engine with the planner's CPU clamp set
// to its configured parallelism, so a parallel system plans fan-out on
// hosts with fewer cores than workers. Call it before the first query.
func LiftCPUClamp(s *System) {
	s.engine = iql.NewEngine(s.mgr, iql.Options{
		Now:          s.now,
		Parallelism:  s.par,
		PlannerProcs: s.par,
		Metrics:      s.metrics,
		QueryLog:     s.qlog,
	})
}
