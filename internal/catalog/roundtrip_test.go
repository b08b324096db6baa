package catalog

import (
	"testing"
	"testing/quick"
)

// Property: Rebuild from a catalog's NextOID and entries reproduces
// every entry, the URI mapping, and the OID allocator position, for
// arbitrary entry contents.
func TestRebuildRoundtripPropertyQuick(t *testing.T) {
	f := func(names []string, derivedBits []bool) bool {
		c := New()
		for i, name := range names {
			e := Entry{
				Name:   name,
				Class:  "class-" + name,
				Source: "src",
				URI:    "/u/" + itoa(i),
			}
			if i < len(derivedBits) {
				e.Derived = derivedBits[i]
			}
			c.Register(e)
		}
		// Dropping the newest entry leaves the allocator ahead of every
		// surviving OID; the rebuilt catalog must not hand it out again.
		if len(names) > 0 {
			c.Remove(OID(len(names)))
		}
		loaded := Rebuild(c.NextOID(), c.All())
		if loaded.Count() != c.Count() {
			return false
		}
		for _, e := range c.All() {
			got, err := loaded.Get(e.OID)
			if err != nil || got != e {
				return false
			}
			byURI, err := loaded.ByURI(e.Source, e.URI)
			if err != nil || byURI.OID != e.OID {
				return false
			}
		}
		// Allocation continues past the persisted counter.
		next := loaded.Register(Entry{Source: "src", URI: "/fresh"})
		return next == OID(len(names))+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
