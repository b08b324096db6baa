package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// wireItem and wireResponse mirror what internal/server encodes.
type wireItem struct {
	OID    uint64 `json:"oid"`
	Name   string `json:"name"`
	Class  string `json:"class"`
	Source string `json:"source"`
	Path   string `json:"path"`
	URI    string `json:"uri"`
}

type wireResponse struct {
	Columns    []string     `json:"columns"`
	Rows       [][]wireItem `json:"rows"`
	Total      int          `json:"total"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

// The key scanner must read exactly what a JSON decoder would, also
// from names that try to look like keys.
func TestScanPageAgreesWithADecoder(t *testing.T) {
	resp := wireResponse{Columns: []string{"A", "B"}, Total: 1064, NextCursor: "eyJ2IjoxfQ"}
	for i := uint64(1); i <= 3; i++ {
		resp.Rows = append(resp.Rows, []wireItem{
			{OID: i, Name: `tricky "total":7 [{"oid":9`, Path: `/a/"next_cursor":"x`},
			{OID: 100 + i, Name: "right"},
		})
	}
	b, _ := json.Marshal(resp)
	p, ok := scanPage(b)
	if !ok || p.total != 1064 || p.rows != 3 || p.next != "eyJ2IjoxfQ" {
		t.Fatalf("scanPage = %+v, %v", p, ok)
	}
	var keys []uint64
	eachRowKey(b, func(k uint64) { keys = append(keys, k) })
	if len(keys) != 3 || keys[0] != 1<<32^101 || keys[2] != 3<<32^103 {
		t.Fatalf("row keys = %#x", keys)
	}

	last, _ := json.Marshal(wireResponse{Columns: []string{"view"}, Rows: [][]wireItem{{{OID: 42}}}, Total: 1})
	p, ok = scanPage(last)
	if !ok || p.total != 1 || p.rows != 1 || p.next != "" {
		t.Fatalf("last page: scanPage = %+v, %v", p, ok)
	}
	empty, _ := json.Marshal(wireResponse{Columns: []string{"view"}, Rows: [][]wireItem{}})
	if p, ok = scanPage(empty); !ok || p.total != 0 || p.rows != 0 {
		t.Fatalf("empty result: scanPage = %+v, %v", p, ok)
	}
	if _, ok = scanPage([]byte(`{"error":"boom"}`)); ok {
		t.Fatal("an error body scanned as a page")
	}
}

// pagedDoer serves a fixed result of n single-column rows, paging by
// pageLimit, optionally repeating a row across a page boundary.
func pagedDoer(n int, repeat bool) doer {
	return func(method, path string, body []byte, into *bytes.Buffer) (int, error) {
		var req struct {
			Cursor string `json:"cursor"`
		}
		json.Unmarshal(body, &req)
		start := 0
		if req.Cursor != "" {
			json.Unmarshal([]byte(req.Cursor), &start)
		}
		resp := wireResponse{Columns: []string{"view"}, Total: n, Rows: [][]wireItem{}}
		for i := start; i < n && i < start+pageLimit; i++ {
			oid := uint64(i + 1)
			if repeat && i == pageLimit {
				oid = uint64(pageLimit) // the previous page's last row again
			}
			resp.Rows = append(resp.Rows, []wireItem{{OID: oid}})
		}
		if start+pageLimit < n {
			c, _ := json.Marshal(start + pageLimit)
			resp.NextCursor = string(c)
		}
		b, _ := json.Marshal(resp)
		into.Write(b)
		return http.StatusOK, nil
	}
}

func TestWalkChecksEveryRowExactlyOnce(t *testing.T) {
	q := newQuery(`"database"`, famKW, 250)
	for _, c := range []struct {
		repeat bool
		failed int
	}{{false, 0}, {true, 2}} { // a repeat is one duplicate and one row short
		a := &api{do: pagedDoer(250, c.repeat), tenants: []string{"t0"}}
		r := &recorder{}
		now := time.Now()
		a.run(&op{kind: kWalk, q: q}, now, now, r)
		if r.attempted != 3 || r.failed != c.failed {
			t.Errorf("repeat=%v: %d requests, %d failures (%v); want 3 and %d", c.repeat, r.attempted, r.failed, r.notes, c.failed)
		}
		if len(r.samples) != 1 || r.samples[0].kind != kWalk {
			t.Errorf("repeat=%v: samples %v, want one walk", c.repeat, r.samples)
		}
	}
	// A wrong total is a failure on every page that carries it.
	a := &api{do: pagedDoer(240, false), tenants: []string{"t0"}}
	r := &recorder{}
	a.run(&op{kind: kWalk, q: q}, time.Now(), time.Now(), r)
	if r.failed != 3 {
		t.Errorf("wrong total: %d failures, want one per page", r.failed)
	}
}

// A marker must be found on its own tenant and nowhere else, and a
// refused request counts as a failure.
func TestMarkerProbesAndRefusals(t *testing.T) {
	src := newSource(1, 0)
	acks := newAckTable(2)
	acks.added(0, src)
	leak := func(method, path string, body []byte, into *bytes.Buffer) (int, error) {
		b, _ := json.Marshal(wireResponse{Columns: []string{"view"}, Total: filesPerSource, Rows: make([][]wireItem, 0)})
		into.Write(b)
		return http.StatusOK, nil
	}
	a := &api{do: leak, tenants: []string{"t0", "t1"}, acks: acks}
	r := &recorder{}
	now := time.Now()
	a.run(&op{kind: kQuery, tenant: 1, marker: true, owner: 0}, now, now, r)
	if r.failed == 0 {
		t.Error("tenant 1 saw tenant 0's marker and nothing failed")
	}
	refuse := func(method, path string, body []byte, into *bytes.Buffer) (int, error) {
		into.WriteString(`{"error":"server at capacity"}`)
		return http.StatusTooManyRequests, nil
	}
	a = &api{do: refuse, tenants: []string{"t0", "t1"}, acks: acks}
	r = &recorder{}
	a.run(&op{kind: kQuery, tenant: 0, q: newQuery(`"x"`, famKW, 1)}, now, now, r)
	if r.attempted != 1 || r.failed != 1 {
		t.Errorf("a 429 gave attempted %d failed %d, want 1 and 1", r.attempted, r.failed)
	}
}
