package idm

// WithRulePlanner returns cfg with the rule-based iQL planner pinned,
// for suites that need forced fan-out whatever the host's core count
// (the adaptive planner refuses it on small machines).
func WithRulePlanner(cfg Config) Config {
	cfg.rulePlanner = true
	return cfg
}

// ClearQueryCache empties the system's query cache, so the next query
// misses; benches call it outside the timed region.
func ClearQueryCache(s *System) { s.cache.clear() }
