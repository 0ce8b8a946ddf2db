package tlb

import (
	"reflect"
	"testing"
)

func walk(t *TLB, seed uint64, n int) int {
	pen := 0
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		pen += t.Access((x >> 30) % (1 << 24))
	}
	return pen
}

// TestCloneIsolatesAndContinues: driving a clone leaves the source as
// an untouched twin, and the clone then behaves exactly like it.
func TestCloneIsolatesAndContinues(t *testing.T) {
	cfg := Config{Name: "T", Entries: 16, Ways: 4, MissPenalty: 30}
	a, b := New(cfg), New(cfg)
	walk(a, 1, 2000)
	walk(b, 1, 2000)
	walk(b.Clone(), 2, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("source changed when its clone was driven")
	}
	c := b.Clone()
	if pa, pc := walk(a, 3, 2000), walk(c, 3, 2000); pa != pc || !reflect.DeepEqual(a, c) {
		t.Fatalf("clone diverged: penalty %d vs %d", pc, pa)
	}
}
