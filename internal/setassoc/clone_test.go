package setassoc

import (
	"reflect"
	"testing"
)

// churn applies a deterministic mix of lookups, inserts and
// invalidations, returning a digest of the observed results.
func churn(t *Table[uint64], seed uint64, n int) uint64 {
	var digest uint64
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		key := (x >> 33) % 97
		switch (x >> 20) % 8 {
		case 0, 1, 2, 3:
			v, ok := t.Lookup(key)
			if ok {
				digest = digest*31 + v + 1
			}
		case 4, 5, 6:
			if t.Insert(key, key*7) {
				digest = digest*31 + 2
			}
		default:
			if t.Invalidate(key) {
				digest = digest*31 + 3
			}
		}
	}
	return digest
}

// TestCloneIsolatesAndContinues: mutating a clone — including hits
// served through its last-hit memo — leaves the source exactly as an
// untouched twin, and the clone then behaves exactly like the source.
func TestCloneIsolatesAndContinues(t *testing.T) {
	for _, geom := range [][2]int{{1, 1}, {4, 4}, {1, 16}, {8, 2}} {
		a, b := New[uint64](geom[0], geom[1]), New[uint64](geom[0], geom[1])
		churn(a, 1, 500)
		churn(b, 1, 500)
		// Leave the memo on a resident key, so the clone's first
		// probe of it is served through lastHit.
		var hot uint64
		for k := uint64(0); k < 97; k++ {
			if _, ok := b.Peek(k); ok {
				hot = k
				break
			}
		}
		a.Lookup(hot)
		b.Lookup(hot)
		c := b.Clone()
		own := false
		for i := range c.entries {
			own = own || c.lastHit == &c.entries[i]
		}
		if !own || c.lastHit.key != hot {
			t.Fatalf("%v: clone lastHit = %p, want its own entry for key %d", geom, c.lastHit, hot)
		}
		c.Lookup(hot) // hit through the memo: stamps the clone's entry only
		churn(c, 2, 500)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: source changed when its clone was driven", geom)
		}
		c2 := b.Clone()
		if da, dc := churn(a, 3, 500), churn(c2, 3, 500); da != dc || !reflect.DeepEqual(a, c2) {
			t.Fatalf("%v: clone diverged from the source's behaviour", geom)
		}
	}
}

// TestSnapshotExpand: a snapshot keeps only the valid entries, and
// both Clone and Expand turn it back into exactly the table it was
// taken of — last-hit memo included — which then behaves like an
// untouched twin.
func TestSnapshotExpand(t *testing.T) {
	for _, geom := range [][2]int{{1, 1}, {4, 4}, {64, 8}} {
		a, b := New[uint64](geom[0], geom[1]), New[uint64](geom[0], geom[1])
		churn(a, 1, 300)
		churn(b, 1, 300)
		for k := uint64(0); k < 97; k++ {
			if _, ok := a.Peek(k); ok {
				a.Lookup(k)
				b.Lookup(k)
				break
			}
		}
		s := b.Snapshot()
		if s.entries != nil || len(s.packed) != s.Len() {
			t.Fatalf("%v: snapshot keeps %d entries for %d valid", geom, len(s.packed), s.Len())
		}
		churn(b, 9, 300) // the source moves on; the snapshot must not
		c := s.Snapshot().Clone()
		s.Expand()
		b = s
		for _, x := range []*Table[uint64]{b, c} {
			if !reflect.DeepEqual(a, x) || (a.lastHit != nil && x.lastHit == nil) {
				t.Fatalf("%v: expanded table differs from the original", geom)
			}
		}
		if da, db, dc := churn(a, 2, 300), churn(b, 2, 300), churn(c, 2, 300); da != db || da != dc || !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
			t.Fatalf("%v: expanded tables diverged from the original", geom)
		}
	}
}
