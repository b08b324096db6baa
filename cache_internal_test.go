package idm

import (
	"testing"
	"time"
)

// TestQueryCacheWholesaleClear exercises the eviction path: when the
// cache reaches capacity, put clears it wholesale and records every
// dropped entry as an eviction.
func TestQueryCacheWholesaleClear(t *testing.T) {
	c := newQueryCache(4)
	res := &cachedResult{}
	for _, q := range []string{"a", "b", "c", "d"} {
		c.put(q, 1, res, 0)
	}
	st := c.stats()
	if st.Size != 4 || st.Evictions != 0 {
		t.Fatalf("before clear: size=%d evictions=%d", st.Size, st.Evictions)
	}
	// The fifth insert finds the cache full, clears all four entries,
	// then stores itself.
	c.put("e", 1, res, 0)
	st = c.stats()
	if st.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", st.Evictions)
	}
	if st.Size != 1 {
		t.Errorf("size after clear = %d, want 1", st.Size)
	}
	if _, ok := c.get("a", 1); ok {
		t.Error("entry survived wholesale clear")
	}
	if r, ok := c.get("e", 1); !ok || r != res {
		t.Error("triggering entry not cached")
	}
	// A second round of fills clears again; evictions accumulate.
	for _, q := range []string{"f", "g", "h"} {
		c.put(q, 1, res, 0)
	}
	c.put("i", 1, res, 0)
	if st = c.stats(); st.Evictions != 8 {
		t.Errorf("evictions after second clear = %d, want 8", st.Evictions)
	}
}

// TestQueryCacheLatencyAndAge drives the latency and entry-age
// accounting with a stepping fake clock, so the reported durations are
// exact rather than wall-clock-dependent.
func TestQueryCacheLatencyAndAge(t *testing.T) {
	clock := time.Unix(0, 0)
	c := newQueryCache(8)
	c.now = func() time.Time { return clock }
	res := &cachedResult{}

	// Two fills with known evaluation costs: mean miss latency 15ms.
	c.put("a", 1, res, 10*time.Millisecond)
	clock = clock.Add(time.Second)
	c.put("b", 1, res, 20*time.Millisecond)
	clock = clock.Add(time.Second)

	// Hits observe the time get itself takes; with a frozen clock that
	// is exactly zero, so step the clock inside get via a wrapper.
	step := 100 * time.Microsecond
	c.now = func() time.Time {
		now := clock
		clock = clock.Add(step)
		return now
	}
	if _, ok := c.get("a", 1); !ok {
		t.Fatal("expected hit")
	}
	c.now = func() time.Time { return clock }

	st := c.stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", st.Hits, st.Misses)
	}
	if st.HitLatency != step {
		t.Errorf("HitLatency = %v, want %v", st.HitLatency, step)
	}
	if st.MissLatency != 15*time.Millisecond {
		t.Errorf("MissLatency = %v, want 15ms", st.MissLatency)
	}
	// The hit stepped the clock twice (start + hit record), so entry
	// "a" is 2s+2·step old and entry "b" 1s+2·step: oldest is a's age,
	// average the midpoint.
	wantOldest := 2*time.Second + 2*step
	if st.OldestEntryAge != wantOldest {
		t.Errorf("OldestEntryAge = %v, want %v", st.OldestEntryAge, wantOldest)
	}
	wantAvg := (wantOldest + time.Second + 2*step) / 2
	if st.AvgEntryAge != wantAvg {
		t.Errorf("AvgEntryAge = %v, want %v", st.AvgEntryAge, wantAvg)
	}
}

// TestQueryCacheMissLatencyUnaffectedByHits checks that hit timing never
// leaks into the miss-cost average.
func TestQueryCacheMissLatencyUnaffectedByHits(t *testing.T) {
	c := newQueryCache(8)
	res := &cachedResult{}
	c.put("q", 1, res, 40*time.Millisecond)
	for i := 0; i < 5; i++ {
		if _, ok := c.get("q", 1); !ok {
			t.Fatal("expected hit")
		}
	}
	st := c.stats()
	if st.MissLatency != 40*time.Millisecond {
		t.Errorf("MissLatency = %v, want 40ms", st.MissLatency)
	}
	if st.HitLatency > 10*time.Millisecond {
		t.Errorf("HitLatency = %v, implausibly slow for an in-memory map hit", st.HitLatency)
	}
}
