package branch

import (
	"reflect"
	"testing"
)

// exercise drives every predictor structure — BTB, gshare, global
// history, RAS — and returns how many predictions were right.
func exercise(p *Predictor, seed uint64, n int) int {
	right := 0
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		pc := (x >> 32) % 4096 * 4
		switch (x >> 16) % 4 {
		case 0:
			if tgt, ok := p.PredictTarget(pc); ok && tgt == pc*3 {
				right++
			}
			p.UpdateTarget(pc, pc*3)
		case 1:
			taken := (x>>8)%3 != 0
			if p.PredictCond(pc) == taken {
				right++
			}
			p.UpdateCond(pc, taken)
		case 2:
			p.PushReturn(pc + 4)
		default:
			if _, ok := p.PredictReturn(); ok {
				right++
			}
		}
	}
	return right
}

// TestCloneIsolatesAndContinues: driving a clone leaves the source as
// an untouched twin, and the clone then predicts exactly like it.
func TestCloneIsolatesAndContinues(t *testing.T) {
	cfg := Config{BTBEntries: 64, BTBWays: 4, PHTEntries: 256, HistoryLen: 8, RASDepth: 4}
	a, b := New(cfg), New(cfg)
	exercise(a, 1, 3000)
	exercise(b, 1, 3000)
	exercise(b.Clone(), 2, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("source changed when its clone was driven")
	}
	c := b.Clone()
	if ra, rc := exercise(a, 3, 3000), exercise(c, 3, 3000); ra != rc || !reflect.DeepEqual(a, c) {
		t.Fatalf("clone diverged: %d vs %d right", rc, ra)
	}
}
