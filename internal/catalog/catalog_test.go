package catalog

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRegisterAssignsSequentialOIDs(t *testing.T) {
	c := New()
	a := c.Register(Entry{Name: "a", Source: "fs", URI: "/a"})
	b := c.Register(Entry{Name: "b", Source: "fs", URI: "/b"})
	if a == 0 || b != a+1 {
		t.Errorf("oids = %d, %d", a, b)
	}
	if c.Count() != 2 {
		t.Errorf("count = %d", c.Count())
	}
}

func TestRegisterStableOIDOnReRegister(t *testing.T) {
	c := New()
	first := c.Register(Entry{Name: "f", Source: "fs", URI: "/f", ContentSize: 10})
	again := c.Register(Entry{Name: "f2", Source: "fs", URI: "/f", ContentSize: 20})
	if first != again {
		t.Errorf("re-register changed OID: %d → %d", first, again)
	}
	e, err := c.Get(first)
	if err != nil || e.Name != "f2" || e.ContentSize != 20 {
		t.Errorf("entry not updated: %+v, %v", e, err)
	}
	if c.Count() != 1 {
		t.Errorf("count = %d", c.Count())
	}
}

func TestRegisterEmptyURINeverCollides(t *testing.T) {
	c := New()
	a := c.Register(Entry{Name: "x", Source: "fs"})
	b := c.Register(Entry{Name: "y", Source: "fs"})
	if a == b {
		t.Error("entries without URI must get distinct OIDs")
	}
}

func TestGetAndByURI(t *testing.T) {
	c := New()
	oid := c.Register(Entry{Name: "a", Source: "fs", URI: "/a", Class: "file"})
	e, err := c.Get(oid)
	if err != nil || e.Class != "file" {
		t.Errorf("Get: %+v, %v", e, err)
	}
	e, err = c.ByURI("fs", "/a")
	if err != nil || e.OID != oid {
		t.Errorf("ByURI: %+v, %v", e, err)
	}
	if _, err := c.Get(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing oid: %v", err)
	}
	if _, err := c.ByURI("fs", "/zzz"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing uri: %v", err)
	}
	// Same URI under a different source is a different entry.
	other := c.Register(Entry{Name: "a", Source: "mail", URI: "/a"})
	if other == oid {
		t.Error("URI collided across sources")
	}
}

func TestRemove(t *testing.T) {
	c := New()
	oid := c.Register(Entry{Name: "a", Source: "fs", URI: "/a"})
	if err := c.Remove(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(oid); !errors.Is(err, ErrNotFound) {
		t.Error("entry survives remove")
	}
	if _, err := c.ByURI("fs", "/a"); !errors.Is(err, ErrNotFound) {
		t.Error("uri mapping survives remove")
	}
	if err := c.Remove(oid); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: %v", err)
	}
	// The URI may be reused afterwards with a fresh OID.
	again := c.Register(Entry{Name: "a", Source: "fs", URI: "/a"})
	if again == oid {
		t.Error("OID reused after remove+register")
	}
}

func TestAllSorted(t *testing.T) {
	c := New()
	for i := 0; i < 10; i++ {
		c.Register(Entry{Name: "e", Source: "s", URI: string(rune('a' + i))})
	}
	all := c.All()
	if len(all) != 10 {
		t.Fatalf("all = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].OID <= all[i-1].OID {
			t.Fatal("All not OID-sorted")
		}
	}
}

func TestSourcesAndStats(t *testing.T) {
	c := New()
	c.Register(Entry{Source: "fs", URI: "/a", ContentSize: 100})
	c.Register(Entry{Source: "fs", URI: "/a#1", Class: "xmlelem", Derived: true})
	c.Register(Entry{Source: "fs", URI: "/a#2", Class: "latex_section", Derived: true})
	c.Register(Entry{Source: "fs", URI: "/a#3", Class: "texref", Derived: true})
	c.Register(Entry{Source: "mail", URI: "m/1", ContentSize: 50})

	if got := c.Sources(); !reflect.DeepEqual(got, []string{"fs", "mail"}) {
		t.Errorf("sources = %v", got)
	}
	st := c.StatsFor("fs")
	if st.Base != 1 || st.Derived != 3 {
		t.Errorf("fs stats = %+v", st)
	}
	if st.DerivedByClassPrefix["xml"] != 1 || st.DerivedByClassPrefix["latex"] != 2 {
		t.Errorf("class breakdown = %v", st.DerivedByClassPrefix)
	}
	if st.ContentBytes != 100 {
		t.Errorf("content bytes = %d", st.ContentBytes)
	}
	if st := c.StatsFor("nope"); st.Base != 0 || st.Derived != 0 {
		t.Errorf("unknown source stats = %+v", st)
	}
}

func TestSizeBytesGrows(t *testing.T) {
	c := New()
	empty := c.SizeBytes()
	c.Register(Entry{Name: "long name here", Source: "fs", URI: "/long/path/entry"})
	if c.SizeBytes() <= empty {
		t.Error("size did not grow")
	}
}

func TestRebuildRoundtrip(t *testing.T) {
	c := New()
	o1 := c.Register(Entry{Name: "a", Source: "fs", URI: "/a", Class: "file", ContentSize: 7})
	c.Register(Entry{Name: "b", Source: "mail", URI: "m/1", Derived: true})
	loaded := Rebuild(c.NextOID(), c.All())
	if loaded.Count() != 2 {
		t.Fatalf("loaded count = %d", loaded.Count())
	}
	e, err := loaded.Get(o1)
	if err != nil || e.Name != "a" || e.ContentSize != 7 {
		t.Errorf("loaded entry = %+v, %v", e, err)
	}
	if _, err := loaded.ByURI("mail", "m/1"); err != nil {
		t.Errorf("uri map not rebuilt: %v", err)
	}
	// OID allocation continues after the highest persisted OID.
	next := loaded.Register(Entry{Name: "c", Source: "fs", URI: "/c"})
	if next <= 2 {
		t.Errorf("next oid = %d, want > 2", next)
	}
}

// Property: OIDs are unique across any interleaving of registers (with
// distinct URIs) and lookups return what was stored.
func TestRegisterUniquenessQuick(t *testing.T) {
	f := func(uris []string) bool {
		c := New()
		seen := make(map[OID]bool)
		byURI := make(map[string]OID)
		for _, u := range uris {
			if u == "" {
				continue // empty URI means "no URI": no stability contract
			}
			oid := c.Register(Entry{Source: "s", URI: u})
			if prev, dup := byURI[u]; dup {
				if oid != prev {
					return false // same URI must keep its OID
				}
				continue
			}
			if seen[oid] {
				return false
			}
			seen[oid] = true
			byURI[u] = oid
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
