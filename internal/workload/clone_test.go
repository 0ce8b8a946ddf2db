package workload

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
)

// warmedPair builds two identically warmed systems and drivers for the
// workload.  Every system carries a compiled program, as runner jobs do.
func warmedPair(t *testing.T, w *Workload, seed uint64, warm int) (a, b *Driver) {
	t.Helper()
	ds := make([]*Driver, 2)
	for i := range ds {
		cfg := core.Enhanced(seed)
		sys, err := w.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.CPU().SetProgram(cpu.Compile(sys.Image(), cfg.Hardware.L1I.LineBytes)); err != nil {
			t.Fatal(err)
		}
		ds[i] = NewDriver(w, sys, DriverSeed(seed))
		if err := ds[i].Warmup(warm); err != nil {
			t.Fatal(err)
		}
	}
	return ds[0], ds[1]
}

// sameRun fails unless two drivers served identical request streams:
// per-class samples, counters, lifetime trampoline counts and churn
// progress.
func sameRun(t *testing.T, label string, a, b *Driver, sa, sb map[string][]float64) {
	t.Helper()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: per-class samples diverge", label)
	}
	if ca, cb := a.System().Counters(), b.System().Counters(); ca != cb {
		t.Fatalf("%s: counters diverge\n  %+v\n  %+v", label, ca, cb)
	}
	la, lb := a.System().LifetimeRecorder(), b.System().LifetimeRecorder()
	if la.Total() != lb.Total() || !reflect.DeepEqual(la.Ranked(), lb.Ranked()) {
		t.Fatalf("%s: lifetime trampoline traces diverge", label)
	}
	if a.Churned() != b.Churned() || a.System().Image().Generation() != b.System().Image().Generation() {
		t.Fatalf("%s: churn progress diverges: %d vs %d rotations", label, a.Churned(), b.Churned())
	}
}

func serve(t *testing.T, d *Driver, n int) map[string][]float64 {
	t.Helper()
	out, err := d.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string][]float64, len(out))
	for c, s := range out {
		vals[c] = s.Values()
	}
	return vals
}

// TestDriverCloneContinuesAndIsolates clones a warmed system and driver
// (core.System.Clone + Driver.Clone) — for the churn workloads
// mid-rotation — and checks that the clone serves exactly the requests
// the source would, and that driving the clone leaves the source
// exactly where an untouched twin is.
func TestDriverCloneContinuesAndIsolates(t *testing.T) {
	for _, g := range []struct {
		gen  func(uint64) *Workload
		warm int
	}{
		{Memcached, 10},
		{PluginServer, 18}, // one rotation done, six requests into the next
		{JIT, 18},
	} {
		w := g.gen(4)
		ref, src := warmedPair(t, w, 4, g.warm)
		cl := src.Clone(src.System().Clone())
		if cl.System() == src.System() || cl.Workload() != w {
			t.Fatal("clone must drive its own system over the shared workload")
		}
		got := serve(t, cl, 40)
		// The source then serves the same requests as its twin.
		want := serve(t, ref, 40)
		sameRun(t, w.Name+" source", ref, src, want, serve(t, src, 40))
		sameRun(t, w.Name+" clone", ref, cl, want, got)
		if w.Churn != nil && ref.Churned() == 0 {
			t.Fatalf("%s: no rotation happened", w.Name)
		}
	}
}
