package abtb

import (
	"reflect"
	"testing"
)

// retire feeds the ABTB a deterministic stream of call→trampoline
// patterns, redirect lookups and snooped stores, returning the number
// of redirects.
func retire(a *ABTB, seed uint64, n int) int {
	redirects := 0
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		tramp := 0x1000 + (x>>40)%64*16
		switch (x >> 16) % 4 {
		case 0, 1:
			a.OnRetireCall(tramp)
			a.OnRetireIndirectBranch(tramp, tramp*5, 0x9000+tramp/2)
		case 2:
			if _, ok := a.Lookup(tramp); ok {
				redirects++
			}
		default:
			a.SnoopStore(0x9000 + (x>>24)%4096)
		}
	}
	// Leave a call pending, so the pattern detector's state is live.
	a.OnRetireCall(0x1000)
	return redirects
}

// TestCloneIsolatesAndContinues: driving a clone leaves the source as
// an untouched twin — mappings, Bloom filter, pending pattern and
// counters — and the clone then behaves exactly like it.
func TestCloneIsolatesAndContinues(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), {Entries: 16, Ways: 4, ExplicitInvalidate: true}} {
		a, b := New(cfg), New(cfg)
		retire(a, 1, 3000)
		retire(b, 1, 3000)
		retire(b.Clone(), 2, 3000)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v: source changed when its clone was driven", cfg)
		}
		c := b.Clone()
		ra, rc := retire(a, 3, 3000), retire(c, 3, 3000)
		if ra != rc || !reflect.DeepEqual(a, c) {
			t.Fatalf("%+v: clone diverged: %d vs %d redirects", cfg, rc, ra)
		}
		if ra == 0 || (a.bloom != nil && a.Flushes() == 0) {
			t.Fatalf("%+v: stream too weak: %d redirects, %d flushes", cfg, ra, a.Flushes())
		}
	}
}
