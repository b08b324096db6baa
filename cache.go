package idm

import (
	"sync"
	"time"
)

// queryCache memoizes query results keyed by query text, invalidated by
// the dataspace version: any change the Synchronization Manager applies
// bumps the version, so cached results are never stale. This is the
// "warm cache" of the paper's Figure 6 made explicit. What it holds is
// the engine's answer, not a resolved one: see cachedResult (page.go).
type queryCache struct {
	// now supplies the cache's clock (latency and entry-age accounting);
	// injectable for tests.
	now func() time.Time

	mu        sync.Mutex
	entries   map[string]cacheEntry
	cap       int
	hits      int64
	misses    int64
	evictions int64
	// hitNanos accumulates the time get spent serving hits; missNanos
	// the evaluation cost callers paid to fill entries (reported by put),
	// over fills entries.
	hitNanos  int64
	missNanos int64
	fills     int64
}

type cacheEntry struct {
	version uint64
	res     *cachedResult
	added   time.Time
}

func newQueryCache(capacity int) *queryCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &queryCache{
		now:     time.Now,
		entries: make(map[string]cacheEntry, capacity),
		cap:     capacity,
	}
}

// get returns the cached result for a query at the given dataspace
// version.
func (c *queryCache) get(query string, version uint64) (*cachedResult, bool) {
	start := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[query]
	if !ok || e.version != version {
		c.misses++
		return nil, false
	}
	c.hits++
	c.hitNanos += int64(c.now().Sub(start))
	return e.res, true
}

// put stores a result together with the evaluation cost the caller paid
// to compute it — the price of the preceding miss. When the cache is
// full it is cleared wholesale — queries repeat within sessions, so a
// periodic cold start is cheaper than tracking recency.
func (c *queryCache) put(query string, version uint64, res *cachedResult, cost time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= c.cap {
		c.clearLocked()
	}
	c.missNanos += int64(cost)
	c.fills++
	c.entries[query] = cacheEntry{version: version, res: res, added: c.now()}
}

// clear drops every entry. Unregistering a source bumps the dataspace
// version (its views are journaled as removals), which already makes
// every entry unservable; clearing keeps the cache from carrying the
// dead results until the next wholesale clear.
func (c *queryCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clearLocked()
}

func (c *queryCache) clearLocked() {
	c.evictions += int64(len(c.entries))
	c.entries = make(map[string]cacheEntry, c.cap)
}

// CacheStats reports query-cache effectiveness.
type CacheStats struct {
	Hits   int64
	Misses int64
	Size   int
	// Evictions counts entries dropped by wholesale clears: the cache
	// evicts everything at once when full, so this grows in steps of
	// the capacity reached.
	Evictions int64
	// HitLatency is the mean time a cache hit took to serve.
	HitLatency time.Duration
	// MissLatency is the mean evaluation cost paid to fill an entry —
	// what a miss costs compared to HitLatency.
	MissLatency time.Duration
	// AvgEntryAge and OldestEntryAge describe how stale the current
	// entries are (age since insertion; entries are version-checked, so
	// old entries are still correct, just cold candidates).
	AvgEntryAge    time.Duration
	OldestEntryAge time.Duration
}

func (c *queryCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Size:      len(c.entries),
		Evictions: c.evictions,
	}
	if c.hits > 0 {
		st.HitLatency = time.Duration(c.hitNanos / c.hits)
	}
	if c.fills > 0 {
		st.MissLatency = time.Duration(c.missNanos / c.fills)
	}
	if len(c.entries) > 0 {
		now := c.now()
		var sum time.Duration
		for _, e := range c.entries {
			age := now.Sub(e.added)
			sum += age
			if age > st.OldestEntryAge {
				st.OldestEntryAge = age
			}
		}
		st.AvgEntryAge = sum / time.Duration(len(c.entries))
	}
	return st
}
