package bloom

import (
	"reflect"
	"testing"
)

func fill(f *Filter, seed uint64, n int) int {
	hits := 0
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if i%3 == 0 {
			f.Add(x >> 20)
		} else if f.Test(x >> 20) {
			hits++
		}
	}
	return hits
}

// TestCloneIsolatesAndContinues: adding to a clone leaves the source
// as an untouched twin, and the clone then answers exactly like it.
func TestCloneIsolatesAndContinues(t *testing.T) {
	a, b := New(512, 3), New(512, 3)
	fill(a, 1, 300)
	fill(b, 1, 300)
	fill(b.Clone(), 2, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("source changed when its clone was filled")
	}
	c := b.Clone()
	if ha, hc := fill(a, 3, 300), fill(c, 3, 300); ha != hc || !reflect.DeepEqual(a, c) {
		t.Fatalf("clone diverged: %d vs %d hits", hc, ha)
	}
}
