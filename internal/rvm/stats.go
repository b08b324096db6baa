package rvm

import (
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/tupleindex"
	"repro/internal/wildcard"
)

// This file implements the Estimate* methods of iql.Store on the manager:
// cheap cardinality estimates answered from index metadata the
// Replica&Indexes module already maintains. Every estimate is an upper
// bound; the query processor uses them only to order work and pick
// strategies, never for correctness.

// estCache memoizes the estimates that would otherwise scan on every
// query: per-root descendant counts for EstimateReach and
// specialization-aware member counts for EstimateClass. Entries are
// valid for one dataspace version: any applied change bumps the
// version and the next estimate rebuilds from an empty cache.
type estCache struct {
	mu         sync.Mutex
	version    uint64
	valid      bool
	counts     map[catalog.OID]int
	classCards map[string]int
}

// resetLocked clears the cache when the dataspace version moved.
// Caller holds c.mu.
func (c *estCache) resetLocked(v uint64) {
	if c.valid && v == c.version {
		return
	}
	c.version = v
	c.valid = true
	c.counts = make(map[catalog.OID]int)
	c.classCards = make(map[string]int)
}

// EstimatePhrase bounds the number of views whose content contains the
// phrase by the shortest posting list of the phrase's tokens.
func (m *Manager) EstimatePhrase(phrase string) int {
	return m.contentIdx.PhraseCardUpper(phrase)
}

// EstimateClass counts the members of the class and its specializations
// from the class index — exact (modulo concurrent changes), O(classes)
// on first ask, memoized per dataspace version afterwards: the scan is
// measurable planner overhead on microsecond-scale queries.
func (m *Manager) EstimateClass(class string) int {
	m.est.mu.Lock()
	defer m.est.mu.Unlock()
	m.est.resetLocked(m.Version())
	if n, ok := m.est.classCards[class]; ok {
		return n
	}
	m.mu.RLock()
	n := 0
	for c, members := range m.classRep {
		if c == "" {
			continue
		}
		if c == class || m.registry.IsA(c, class) {
			n += len(members)
		}
	}
	m.mu.RUnlock()
	m.est.classCards[class] = n
	return n
}

// EstimateNamePattern answers exact-name patterns from the exact-match
// lane of the name replica in O(1). Wildcard patterns would need a scan
// to count, so they report ok = false and the planner falls back to
// other constraints.
func (m *Manager) EstimateNamePattern(pattern string) (int, bool) {
	lowered := strings.ToLower(pattern)
	if wildcard.IsPattern(lowered) {
		return 0, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.byLowerName[lowered]), true
}

// EstimateTuple bounds the number of views whose attribute satisfies
// (op, value) from the sorted column span, O(log n).
func (m *Manager) EstimateTuple(attr string, op tupleindex.Op, value core.Value) int {
	return m.tupleIdx.CardEstimate(attr, op, value)
}

// EstimateReach bounds the number of views reachable from the given
// views through group edges. Per-root subtree sizes are memoized across
// calls and invalidated by dataspace version, so a benchmark or query
// burst over a stable dataspace pays the traversal once; overlapping
// subtrees among roots may be double-counted (the result stays an upper
// bound, capped at the view count).
func (m *Manager) EstimateReach(oids []catalog.OID) int {
	m.est.mu.Lock()
	defer m.est.mu.Unlock()
	m.est.resetLocked(m.Version())
	m.mu.RLock()
	defer m.mu.RUnlock()
	total := len(m.views)
	sum := 0
	for _, oid := range oids {
		sum += m.descCountLocked(oid)
		if sum >= total {
			return total
		}
	}
	return sum
}

// descCountLocked counts the views reachable from oid through group
// edges, memoized in the estimate cache. Cycles (which the group
// replica can represent) are broken with an in-progress marker: an edge
// back into a view being counted contributes only the edge's target
// count from elsewhere, keeping the recursion finite. Caller holds
// est.mu and m.mu (read).
func (m *Manager) descCountLocked(oid catalog.OID) int {
	const inProgress = -1
	if n, ok := m.est.counts[oid]; ok {
		if n == inProgress {
			return 0
		}
		return n
	}
	m.est.counts[oid] = inProgress
	n := 0
	for _, ch := range m.groupRep[oid] {
		n += 1 + m.descCountLocked(ch)
	}
	if cap := len(m.views); n > cap {
		n = cap
	}
	m.est.counts[oid] = n
	return n
}
