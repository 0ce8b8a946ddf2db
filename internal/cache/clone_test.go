package cache

import (
	"reflect"
	"testing"
)

// traffic performs a deterministic access stream through l1 and
// returns the summed latency.
func traffic(l1 *Cache, seed uint64, n int) int {
	lat := 0
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		lat += l1.Access((x >> 30) % (64 << 10))
	}
	return lat
}

// TestCloneIsolatesAndContinues: a cloned two-level hierarchy is wired
// to its own L2, driving it leaves the source hierarchy as an untouched
// twin, and it then behaves exactly like the source.
func TestCloneIsolatesAndContinues(t *testing.T) {
	l2cfg := Config{Name: "L2", SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, HitLatency: 4, MissPenalty: 100}
	l1cfg := Config{Name: "L1", SizeBytes: 2 << 10, LineBytes: 64, Ways: 2, MissPenalty: 8}
	newL1 := func() *Cache { return New(l1cfg, New(l2cfg, nil)) }
	a, b := newL1(), newL1()
	traffic(a, 1, 4000)
	traffic(b, 1, 4000)

	c := b.Clone(b.Next().Clone(nil))
	if c.Next() == b.Next() {
		t.Fatal("clone shares the source's L2")
	}
	traffic(c, 2, 4000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("source hierarchy changed when its clone was driven")
	}
	c = b.Clone(b.Next().Clone(nil))
	if la, lc := traffic(a, 3, 4000), traffic(c, 3, 4000); la != lc || !reflect.DeepEqual(a, c) {
		t.Fatalf("clone diverged: latency %d vs %d", lc, la)
	}
}
