package cpu

import (
	"testing"

	"repro/internal/linker"
)

// cloneTwins links the same random program twice and returns two CPUs
// in identical states: ref is never cloned, src is the clone source.
func cloneTwins(t *testing.T, seed uint64, enhanced, compiled bool) (ref, src *CPU) {
	t.Helper()
	app, libs := genRandomProgram(seed)
	opts := linker.Options{Mode: linker.BindLazy, Seed: seed}
	cfg := DefaultConfig()
	if enhanced {
		cfg = EnhancedConfig()
	}
	cfg.Seed = seed
	cpus := make([]*CPU, 2)
	for i := range cpus {
		im, err := linker.Link(app, libs, opts)
		if err != nil {
			t.Fatal(err)
		}
		cpus[i] = New(im, cfg)
		if compiled {
			if err := cpus[i].SetProgram(Compile(im, cfg.L1I.LineBytes)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cpus[0], cpus[1]
}

// TestCloneContinuesAndIsolates: a CPU cloned mid-run continues
// bit-identically to an uncloned twin, and driving the clone — lazy
// resolutions, GOT stores, cache and predictor traffic — leaves the
// source exactly where it was, on both kernel paths and both systems.
func TestCloneContinuesAndIsolates(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, enhanced := range []bool{false, true} {
			for _, compiled := range []bool{false, true} {
				ref, src := cloneTwins(t, seed, enhanced, compiled)
				// One run leaves lazy bindings, warm caches and a
				// trained ABTB behind; ResetStats mimics warmup's end.
				for _, c := range []*CPU{ref, src} {
					if _, err := c.RunSymbol("main", 2_000_000); err != nil {
						t.Fatal(err)
					}
					c.ResetStats()
				}
				cl := src.Clone(src.Image().Clone())
				comparePair(t, "clone at capture", ref, cl)

				// The clone runs ahead; the source must not notice.
				for i := 0; i < 3; i++ {
					if _, err := cl.RunSymbol("main", 2_000_000); err != nil {
						t.Fatal(err)
					}
				}
				comparePair(t, "source after clone ran", ref, src)

				// Source and reference then run the clone's sequence
				// and must land where the clone did.
				for i := 0; i < 3; i++ {
					for _, c := range []*CPU{ref, src} {
						if _, err := c.RunSymbol("main", 2_000_000); err != nil {
							t.Fatal(err)
						}
					}
				}
				comparePair(t, "source vs reference", ref, src)
				comparePair(t, "clone vs reference", ref, cl)
			}
		}
	}
}

// TestCloneChurnedDemandImage clones a CPU whose image has been churned
// with demand paging, once with pages still pending and once after they
// all faulted in: each clone must fault exactly the pages the source
// would, and a demand reload on a clone must not add pending pages to
// the source.
func TestCloneChurnedDemandImage(t *testing.T) {
	newCPU := func() *CPU {
		c := New(churnImage(t), EnhancedConfig())
		c.RunSymbol("warm", 0)
		churnOnce(t, c, 12, true)
		return c
	}
	ref, src := newCPU(), newCPU()
	pending := src.Clone(src.Image().Clone())
	if got, want := pending.Image().DemandPending(), src.Image().DemandPending(); got != want || want == 0 {
		t.Fatalf("clone has %d demand-pending pages, source %d (want equal, > 0)", got, want)
	}
	for _, c := range []*CPU{ref, src, pending} {
		run(t, c, 1)
	}
	if n := src.Image().DemandPending(); n != 0 {
		t.Fatalf("source still has %d demand-pending pages after a run", n)
	}
	drained := src.Clone(src.Image().Clone())
	churnOnce(t, drained, 16, true)
	if n := src.Image().DemandPending(); n != 0 {
		t.Fatalf("source has %d demand-pending pages after its clone reloaded, want 0", n)
	}
	run(t, drained, 1)

	for _, c := range []*CPU{ref, src, pending} {
		churnOnce(t, c, 16, true)
		run(t, c, 1)
	}
	comparePair(t, "source vs reference", ref, src)
	for _, c := range []*CPU{pending, drained} {
		comparePair(t, "clone vs reference", ref, c)
		if a, b := ref.PageFaults(), c.PageFaults(); a != b || a == 0 {
			t.Fatalf("page faults: clone %d, reference %d (want equal, > 0)", b, a)
		}
		if a, b := ref.Image().Resolutions(), c.Image().Resolutions(); a != b {
			t.Fatalf("resolutions: clone %d, reference %d", b, a)
		}
	}
}

// TestSnapshotCloneAndExpand: a CPU snapshot (a held warm checkpoint)
// yields, by Clone and by Expand, CPUs that continue exactly like an
// uncloned twin.
func TestSnapshotCloneAndExpand(t *testing.T) {
	for _, enhanced := range []bool{false, true} {
		ref, src := cloneTwins(t, 9, enhanced, true)
		for _, c := range []*CPU{ref, src} {
			run(t, c, 2)
		}
		stored := src.Snapshot(src.Image().Clone())
		if stored.execPages != nil || len(stored.packedExec) == 0 {
			t.Fatal("snapshot kept full execution-count pages")
		}
		cloned := stored.Clone(stored.Image().Clone())
		stored.Expand()
		for _, c := range []*CPU{ref, stored, cloned} {
			run(t, c, 3)
		}
		comparePair(t, "expanded vs reference", ref, stored)
		comparePair(t, "cloned from compacted vs reference", ref, cloned)
	}
}
