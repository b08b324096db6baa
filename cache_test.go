package idm_test

import (
	"testing"

	idm "repro"
)

func cacheSystem(t *testing.T) (*idm.System, *idm.FS) {
	t.Helper()
	fs := idm.NewFileSystem()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/a.txt", []byte("cachable content"))
	sys := idm.Open(idm.Config{Now: fixedNow})
	sys.AddFileSystem("filesystem", fs)
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	return sys, fs
}

func TestQueryCacheHitsOnRepeat(t *testing.T) {
	sys, _ := cacheSystem(t)
	for i := 0; i < 3; i++ {
		res, err := sys.Query(`"cachable content"`)
		if err != nil || res.Count() != 1 {
			t.Fatalf("run %d: %v (%d)", i, err, res.Count())
		}
	}
	st := sys.CacheStats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", st)
	}
	if st.Size != 1 {
		t.Errorf("size = %d", st.Size)
	}
}

func TestQueryCacheInvalidatedByChange(t *testing.T) {
	sys, fs := cacheSystem(t)
	res, _ := sys.Query(`"cachable content"`)
	if res.Count() != 1 {
		t.Fatal("setup")
	}
	// A change bumps the dataspace version; the stale entry must not
	// be served.
	fs.WriteFile("/d/b.txt", []byte("more cachable content here"))
	if _, err := sys.Index(); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(`"cachable content"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 2 {
		t.Errorf("after change: %d results (stale cache?)", res.Count())
	}
}

// TestQueryCacheLatencyStats checks the System-level surface of the
// latency/age accounting: a miss records its evaluation cost, hits stay
// far cheaper, and live entries age.
func TestQueryCacheLatencyStats(t *testing.T) {
	sys, _ := cacheSystem(t)
	for i := 0; i < 3; i++ {
		if _, err := sys.Query(`"cachable content"`); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.CacheStats()
	if st.MissLatency <= 0 {
		t.Errorf("MissLatency = %v, want > 0 (the miss paid a full evaluation)", st.MissLatency)
	}
	if st.HitLatency > st.MissLatency {
		t.Errorf("HitLatency %v exceeds MissLatency %v", st.HitLatency, st.MissLatency)
	}
	if st.OldestEntryAge < 0 || st.AvgEntryAge < 0 {
		t.Errorf("negative entry age: %+v", st)
	}
	if st.AvgEntryAge > st.OldestEntryAge {
		t.Errorf("AvgEntryAge %v exceeds OldestEntryAge %v", st.AvgEntryAge, st.OldestEntryAge)
	}
}

func TestQueryCacheErrorsNotCached(t *testing.T) {
	sys, _ := cacheSystem(t)
	if _, err := sys.Query(`//bad[`); err == nil {
		t.Fatal("bad query accepted")
	}
	if st := sys.CacheStats(); st.Size != 0 {
		t.Errorf("error cached: %+v", st)
	}
}
