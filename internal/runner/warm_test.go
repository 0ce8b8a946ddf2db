package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
	"repro/internal/timeline"
)

// sameResult fails the test unless two results of the same spec are
// bit-identical in everything a job reports: counters, per-class
// latency samples, the lifetime trampoline trace (counts and order),
// the timeline series and the sampled-estimate block.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Counters != want.Counters {
		t.Errorf("%s: counters diverge:\n  got  %+v\n  want %+v", label, got.Counters, want.Counters)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Errorf("%s: %d sample classes, want %d", label, len(got.Samples), len(want.Samples))
	}
	for class, ws := range want.Samples {
		gs, ok := got.Samples[class]
		if !ok || !reflect.DeepEqual(gs.Values(), ws.Values()) {
			t.Errorf("%s: class %q samples diverge", label, class)
		}
	}
	if got.Trace.Total() != want.Trace.Total() || !reflect.DeepEqual(got.Trace.Ranked(), want.Trace.Ranked()) {
		t.Errorf("%s: lifetime trampoline counts diverge (%d vs %d calls)", label, got.Trace.Total(), want.Trace.Total())
	}
	gd, gc := got.Trace.StackDistances()
	wd, wc := want.Trace.StackDistances()
	if gc != wc || !reflect.DeepEqual(gd, wd) {
		t.Errorf("%s: lifetime trampoline order diverges", label)
	}
	if !reflect.DeepEqual(got.Timeline, want.Timeline) {
		t.Errorf("%s: timelines diverge", label)
	}
	if !reflect.DeepEqual(got.Sampled, want.Sampled) {
		t.Errorf("%s: sampled blocks diverge", label)
	}
}

// submitQueued submits specs to a one-worker runner while holding its
// worker slot, so every job is queued before the first one starts: the
// first warms from cold and captures, each later one restores.
func submitQueued(t *testing.T, r *Runner, specs []JobSpec) []*Job {
	t.Helper()
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		j, _, err := r.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	return jobs
}

// warmModes are three jobs sharing one warm phase: exact with a
// timeline, exact without, and sampled.
func warmModes(workload string, cfg ConfigKind, seed uint64) []JobSpec {
	base := JobSpec{Workload: workload, Config: cfg, Seed: seed, Warm: 18, Measure: MinMeasure}
	tl, off, sampled := base, base, base
	tl.TimelineInterval = timeline.MinInterval
	off.TimelineOff = true
	sampled.SampleWindows = 2
	return []JobSpec{tl, off, sampled}
}

// TestWarmCheckpointBitIdentical is the checkpoint invariant: for every
// registered workload under every config it accepts, jobs that start
// from a warm checkpoint — the clone path and the take-on-last-use
// path — report exactly what the same jobs report when each warms from
// cold.  Warm=18 stops plugin-server six requests into its second
// rotation period with one of its two slots rotated, and jit part-way
// through its GOT rewriting, so churn state is captured mid-cycle.
// Under -race, which checks the concurrency and not the arithmetic,
// the matrix keeps the churn workloads and memcached: the other paper
// workloads run the same code paths ten times slower.
func TestWarmCheckpointBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, ws := range Workloads {
		if raceDetector && ws.Configs == nil && ws.Name != "memcached" {
			continue
		}
		for _, cfg := range ws.ConfigKinds() {
			t.Run(ws.Name+"/"+string(cfg), func(t *testing.T) {
				t.Parallel()
				specs := warmModes(ws.Name, cfg, 3)

				// One worker, all three queued: the first job warms
				// from cold and captures for the two still queued; the
				// next clones the checkpoint, the last takes it.
				r := New(Options{Workers: 1})
				defer r.Close()
				got := make([]Result, len(specs))
				for i, j := range submitQueued(t, r, specs) {
					res, err := j.Wait(ctx)
					if err != nil {
						t.Fatal(err)
					}
					got[i] = res
				}
				if st := r.Stats(); st.WarmCaptures != 1 || st.WarmHits != 2 || st.WarmCheckpoints != 0 {
					t.Fatalf("captures=%d hits=%d held=%d, want 1, 2, 0", st.WarmCaptures, st.WarmHits, st.WarmCheckpoints)
				}

				// Run one job at a time: nobody waits, so nothing is
				// captured and every job warms from cold.
				cold := New(Options{Workers: 1})
				defer cold.Close()
				for i, spec := range specs {
					want, err := cold.Run(ctx, spec)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, fmt.Sprintf("mode %d", i), got[i], want)
				}
				if st := cold.Stats(); st.WarmCaptures != 0 || st.WarmHits != 0 {
					t.Fatalf("sequential runner used checkpoints: captures=%d hits=%d", st.WarmCaptures, st.WarmHits)
				}
			})
		}
	}
}

// TestWarmCheckpointSpanAttr: each job's warmup span says how its warm
// phase ran, so a trace explains a ~0 ms warmup.
func TestWarmCheckpointSpanAttr(t *testing.T) {
	r := New(Options{Workers: 1})
	defer r.Close()
	seen := map[string]int{}
	for _, j := range submitQueued(t, r, warmModes("memcached", Enhanced, 5)[1:]) {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		tr, _ := r.Tracer().Get(j.ID)
		var warmup *telemetry.SpanJSON
		for _, c := range tr.Snapshot().Root.Children {
			for i := range c.Children {
				if c.Children[i].Name == "warmup" {
					warmup = &c.Children[i]
				}
			}
		}
		if warmup == nil {
			t.Fatalf("job %s has no warmup span", j.ID)
		}
		seen[warmup.Attrs["checkpoint"]]++
	}
	if seen["captured"] != 1 || seen["hit"] != 1 {
		t.Errorf("warmup checkpoint attrs = %v, want one captured and one hit", seen)
	}
}

// TestWarmCheckpointNoLeak submits jobs that share one warm phase from
// many goroutines at once, with one job cancelled in its warm phase
// (a hang until its timeout) and one failed by fault injection before
// its warm phase.  After Drain no checkpoint may be held, and every
// job that finished must match its recomputed result.  Run under -race
// by `make race`.
func TestWarmCheckpointNoLeak(t *testing.T) {
	armed(t, "runner.warmup", faultinject.PointConfig{Mode: faultinject.Hang, Prob: 1, Count: 1})
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Error, Prob: 1, Count: 1})
	r := New(Options{Workers: 2, JobTimeout: 4 * time.Second, Retry: RetryPolicy{MaxAttempts: 1}})
	defer r.Close()

	const n = 10
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = JobSpec{Workload: "memcached", Config: Enhanced, Seed: 21, Warm: 12, Measure: MinMeasure + 2*i}
		if i%2 == 1 {
			specs[i].SampleWindows = 2
		}
	}
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, _, err := r.Submit(specs[i])
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if left := r.Drain(ctx); left != 0 {
		t.Fatalf("%d jobs still unfinished after drain", left)
	}
	st := r.Stats()
	if st.WarmCheckpoints != 0 {
		t.Fatalf("%d warm checkpoints held by an idle runner", st.WarmCheckpoints)
	}
	if st.WarmHits == 0 {
		t.Error("no job restored a warm checkpoint")
	}
	r.warm.mu.Lock()
	if len(r.warm.want) != 0 || len(r.warm.held) != 0 {
		t.Errorf("warm store not empty after drain: want=%v held=%d", r.warm.want, len(r.warm.held))
	}
	r.warm.mu.Unlock()

	faultinject.Reset()
	cold := New(Options{Workers: 1})
	defer cold.Close()
	var timedOut, injected int
	for i, j := range jobs {
		if j == nil {
			continue
		}
		if err := j.Err(); err != nil {
			var ie *faultinject.InjectedError
			switch {
			case errors.Is(err, ErrJobTimeout):
				timedOut++
			case errors.As(err, &ie):
				injected++
			default:
				t.Errorf("job %d: unexpected failure %v", i, err)
			}
			continue
		}
		got, _ := j.Result()
		want, err := cold.Run(context.Background(), specs[i])
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("job %d", i), *got, want)
	}
	if timedOut != 1 || injected != 1 {
		t.Errorf("failures: %d timed out, %d injected; want 1 each", timedOut, injected)
	}
}
