package runner

import (
	"context"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

// TestPooledBitIdenticalToUnpooled is the tentpole invariant at the
// runner layer: the same specs run through the artifact pool and with
// pooling disabled produce bit-identical counters and latencies.
func TestPooledBitIdenticalToUnpooled(t *testing.T) {
	specs := []JobSpec{
		{Workload: "memcached", Config: Base, Seed: 4, Warm: 5, Measure: 30},
		{Workload: "memcached", Config: Enhanced, Seed: 4, Warm: 5, Measure: 30},
		{Workload: "memcached", Config: Enhanced, Seed: 4, Warm: 5, Measure: 60},
	}

	pooled := New(Options{Workers: 2})
	defer pooled.Close()
	unpooled := New(Options{Workers: 2, DisablePool: true})
	defer unpooled.Close()
	if pooled.ArtifactPool() == nil {
		t.Fatal("default runner has no artifact pool")
	}
	if unpooled.ArtifactPool() != nil {
		t.Fatal("DisablePool runner still has a pool")
	}

	pr, err := pooled.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := unpooled.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if pr[i].Counters != ur[i].Counters {
			t.Errorf("spec %d: pooled counters diverge from unpooled:\npooled   %+v\nunpooled %+v",
				i, pr[i].Counters, ur[i].Counters)
		}
		for class, ps := range pr[i].Samples {
			us, ok := ur[i].Samples[class]
			if !ok {
				t.Errorf("spec %d: class %q missing unpooled", i, class)
				continue
			}
			pv, uv := ps.Values(), us.Values()
			if len(pv) != len(uv) {
				t.Errorf("spec %d %q: %d vs %d samples", i, class, len(pv), len(uv))
				continue
			}
			for k := range pv {
				if pv[k] != uv[k] {
					t.Errorf("spec %d %q: sample %d = %v pooled, %v unpooled", i, class, k, pv[k], uv[k])
					break
				}
			}
		}
	}

	// All three jobs share one bundle; base and enhanced share link
	// options, so one master serves all three (two forks are hits).
	// The two enhanced jobs share a warm phase: when they run one
	// after the other, the second restores a warm checkpoint and never
	// touches the pool, so every job after the first is either a pool
	// hit or a checkpoint hit.  Exact counts shift when ambient fault
	// injection forces retries (each retry touches the pool again), so
	// only check them clean.
	if !faultinject.Enabled() {
		st := pooled.ArtifactPool().Stats()
		if st.WorkloadMisses != 1 {
			t.Errorf("workload generated %d times, want 1", st.WorkloadMisses)
		}
		warmHits := pooled.Stats().WarmHits
		if st.ImageMisses != 1 || st.ImageHits+warmHits != 2 {
			t.Errorf("image misses=%d hits=%d, warm checkpoint hits=%d; want 1 miss + 2 pool or checkpoint hits",
				st.ImageMisses, st.ImageHits, warmHits)
		}
	}

	// Wall split: both components populated, Wall is their sum.
	for i, res := range pr {
		if res.SetupWall <= 0 || res.MeasureWall <= 0 {
			t.Errorf("spec %d: SetupWall=%v MeasureWall=%v, want both > 0", i, res.SetupWall, res.MeasureWall)
		}
		if res.Wall != res.SetupWall+res.MeasureWall {
			t.Errorf("spec %d: Wall=%v != SetupWall+MeasureWall=%v", i, res.Wall, res.SetupWall+res.MeasureWall)
		}
	}
}

// TestConcurrentPooledJobs fans many jobs that share one pooled master
// across the worker pool concurrently (run with -race) and checks each
// against its unpooled twin.
func TestConcurrentPooledJobs(t *testing.T) {
	pooled := New(Options{Workers: 4})
	defer pooled.Close()
	unpooled := New(Options{Workers: 4, DisablePool: true})
	defer unpooled.Close()

	specs := make([]JobSpec, 6)
	for i := range specs {
		specs[i] = JobSpec{Workload: "memcached", Config: Base, Seed: 11, Warm: 5, Measure: 25 + 5*i}
	}
	var wg sync.WaitGroup
	pr := make([]Result, len(specs))
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			pr[i], errs[i] = pooled.Run(context.Background(), spec)
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	ur, err := unpooled.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if pr[i].Counters != ur[i].Counters {
			t.Errorf("job %d: pooled counters diverge from unpooled", i)
		}
	}
	if st := pooled.ArtifactPool().Stats(); !faultinject.Enabled() && (st.WorkloadMisses != 1 || st.ImageMisses != 1) {
		t.Errorf("concurrent jobs rebuilt artifacts: %+v, want 1 workload miss and 1 image miss", st)
	}
}

// TestNormalizeRejectsExplicitSubMinimum pins the Normalize contract:
// an explicitly requested budget below MinMeasure errors (it used to
// be silently clamped to 20 and cached under a key the caller never
// asked for), while the default and scale-fold paths still clamp.
func TestNormalizeRejectsExplicitSubMinimum(t *testing.T) {
	_, err := JobSpec{Workload: "memcached", Config: Base, Seed: 1, Measure: 5}.Normalize()
	if err == nil {
		t.Error("explicit measure=5 normalized, want error")
	}
	if _, _, err := New(Options{Workers: 1}).Submit(JobSpec{Workload: "memcached", Config: Base, Seed: 1, Measure: 5}); err == nil {
		t.Error("explicit measure=5 submitted, want error")
	}
	// MinMeasure itself is accepted.
	n, err := JobSpec{Workload: "memcached", Config: Base, Seed: 1, Measure: MinMeasure}.Normalize()
	if err != nil || n.Measure != MinMeasure {
		t.Errorf("measure=%d: n=%+v err=%v, want accepted verbatim", MinMeasure, n, err)
	}
	// The scale-fold path clamps rather than erroring: an explicit
	// valid budget scaled below the floor lands on the floor.
	n, err = JobSpec{Workload: "memcached", Config: Base, Seed: 1, Measure: 100, Scale: 0.01}.Normalize()
	if err != nil || n.Measure != MinMeasure {
		t.Errorf("measure=100 scale=0.01: n=%+v err=%v, want clamp to %d", n, err, MinMeasure)
	}
	// The workload-default path still clamps tiny scales.
	n, err = JobSpec{Workload: "memcached", Config: Base, Seed: 1, Scale: 0.001}.Normalize()
	if err != nil || n.Measure != MinMeasure {
		t.Errorf("default scale=0.001: n=%+v err=%v, want clamp to %d", n, err, MinMeasure)
	}
}
