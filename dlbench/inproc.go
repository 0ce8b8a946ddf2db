package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/pool"
	"repro/internal/runner"
	"repro/internal/store"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// screenWindows are the sample_windows values of the screen-sweep
// workload.  The two settings share each job's (workload, seed,
// config, warm), so half of a screen's jobs repeat a warmup the run
// already did.
var screenWindows = []int{4, 8}

// screenSweeps is one screen: for each paper workload and each window
// count, one sweep over every configuration at the given seed.
func screenSweeps(seed uint64) []runner.SweepSpec {
	var out []runner.SweepSpec
	for _, ws := range runner.PaperWorkloads() {
		for _, sw := range screenWindows {
			out = append(out, runner.SweepSpec{
				Workload:      ws.Name,
				Configs:       runner.ConfigKinds(),
				Seeds:         []uint64{seed},
				SampleWindows: sw,
			})
		}
	}
	return out
}

// screenSpecs expands a screen into its job specs, in submission order.
func screenSpecs(seed uint64) ([]runner.JobSpec, error) {
	var out []runner.JobSpec
	for _, sw := range screenSweeps(seed) {
		specs, err := sw.Expand()
		if err != nil {
			return nil, err
		}
		out = append(out, specs...)
	}
	return out, nil
}

// jobRecord is one completed op of an in-process workload.
type jobRecord struct {
	res     runner.Result
	latency time.Duration // submit to the job reading as done
	ok      bool
}

// inprocRun accumulates one in-process run.
type inprocRun struct {
	workers int
	jobs    []jobRecord
	rounds  [][]jobRecord   // jobs grouped by round (one sweep or screen)
	walls   []time.Duration // each round's wall clock, submit to last job done
	wall    time.Duration   // timed wall clock over all rounds

	poolHits, poolMisses uint64
	sharedBytes          int64
	cacheHits, submits   uint64
	retries, failed      uint64
	lastStore            string // store directory of the last screen, kept for the store replay
}

// round is one sweep (paper-exact) or screen (screen-sweep) on a
// fresh runner.
type round struct {
	r    *runner.Runner
	st   *store.Store
	dir  string
	seed uint64
}

// probeSetups measures set-up as a user of the simulator meets it: a
// fresh process (runtime and package initialisation) until the first
// round's runner, and for a screen its store, is ready.  It runs
// setupReps such processes, one after another.
func probeSetups(cfg *config) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(self, "-setup-probe", "-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10), "-work", cfg.work)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t)
		if err := cmd.Wait(); err != nil || rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe: %v %v %q", err, rerr, line)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// setupProbe is the child side of probeSetups.
func setupProbe(cfg *config, stdout io.Writer) error {
	rd, err := newRound(cfg, cfg.seed, 0)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ready")
	return rd.close(false)
}

// newRound builds the runner (and, for a screen, its store in a fresh
// directory) that one round runs on.
func newRound(cfg *config, seed uint64, n int) (*round, error) {
	rd := &round{seed: seed}
	opts := runner.Options{Workers: cfg.workers}
	if cfg.workload == "screen-sweep" {
		rd.dir = filepath.Join(cfg.tmp, "screen-"+strconv.Itoa(n))
		if err := os.RemoveAll(rd.dir); err != nil {
			return nil, err
		}
		st, err := store.Open(rd.dir, store.Options{})
		if err != nil {
			return nil, err
		}
		rd.st = st
		opts.Store = st
	}
	rd.r = runner.New(opts)
	return rd, nil
}

func (rd *round) close(keep bool) error {
	rd.r.Close()
	if rd.st == nil {
		return nil
	}
	if err := rd.st.Close(); err != nil {
		return err
	}
	if keep {
		return nil
	}
	return os.RemoveAll(rd.dir)
}

// pending is a submitted job waiting to complete.
type pending struct {
	job       *runner.Job
	submitted time.Time
	submitDur time.Duration // the Submit or SubmitBatch call itself
}

// runInproc runs paper-exact or screen-sweep: a closed loop of whole
// rounds over consecutive seeds, each on a fresh runner, until the
// measuring time is used up.
func runInproc(ctx context.Context, cfg *config, g *gate, tr *tracer) (*inprocRun, []float64, error) {
	setups, err := probeSetups(cfg)
	if err != nil {
		return nil, nil, err
	}
	run := &inprocRun{workers: cfg.workers}
	deadline := time.Now().Add(cfg.seconds)
	start := time.Now()
	for n := 0; ; n++ {
		rd, err := newRound(cfg, cfg.seed+uint64(n), n)
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		recs, err := runRound(ctx, cfg, rd, g, tr)
		if err != nil {
			return nil, nil, err
		}
		run.walls = append(run.walls, time.Since(t))
		fmt.Fprintf(os.Stderr, "dlbench: round %d (seed %d): %d jobs in %.3f s\n", n, rd.seed, len(recs), time.Since(t).Seconds())
		run.rounds = append(run.rounds, recs)
		run.jobs = append(run.jobs, recs...)
		ps := rd.r.ArtifactPool().Stats()
		run.poolHits += ps.ImageHits
		run.poolMisses += ps.ImageMisses
		run.sharedBytes = max(run.sharedBytes, ps.ImageBytes)
		rs := rd.r.Stats()
		run.cacheHits += rs.CacheHits + rs.Deduped
		run.submits += rs.CacheHits + rs.Deduped + rs.CacheMisses
		run.retries += rs.Retries
		run.failed += rs.Failed
		done := !time.Now().Before(deadline)
		keep := done && cfg.trace
		if keep {
			run.lastStore = rd.dir
		}
		if err := rd.close(keep); err != nil {
			return nil, nil, err
		}
		if done {
			break
		}
	}
	run.wall = time.Since(start)
	return run, setups, nil
}

// runRound submits one round and waits for every job.
func runRound(ctx context.Context, cfg *config, rd *round, g *gate, tr *tracer) ([]jobRecord, error) {
	var ps []pending
	if cfg.workload == "screen-sweep" {
		for _, sw := range screenSweeps(rd.seed) {
			t0 := time.Now()
			b, _, err := rd.r.SubmitBatch(sw)
			if err != nil {
				return nil, fmt.Errorf("submitting screen batch: %w", err)
			}
			d := time.Since(t0)
			for _, j := range b.Jobs() {
				ps = append(ps, pending{job: j, submitted: t0, submitDur: d})
			}
		}
	} else {
		for _, spec := range runner.SuiteSpecs(rd.seed, 1) {
			t0 := time.Now()
			j, _, err := rd.r.Submit(spec)
			if err != nil {
				return nil, fmt.Errorf("submitting %s/%s: %w", spec.Workload, spec.Config, err)
			}
			ps = append(ps, pending{job: j, submitted: t0, submitDur: time.Since(t0)})
		}
	}
	doneAt := waitAll(ps)
	recs := make([]jobRecord, len(ps))
	for i, p := range ps {
		res, err := p.job.Wait(ctx)
		rec := jobRecord{res: res, latency: doneAt[i].Sub(p.submitted), ok: err == nil}
		if err != nil {
			g.mismatch(fmt.Sprintf("job %s failed: %v", p.job.Key, err))
		} else if reason := g.check(checkOf(res)); reason != "" {
			rec.ok = false
		}
		// Keep only what the metrics read: the workload bundle, trace
		// recorder, samples and timeline would hold every round's
		// memory until the run ends.
		rec.res.Workload, rec.res.Trace, rec.res.Samples, rec.res.Timeline = nil, nil, nil, nil
		recs[i] = rec
		if tr != nil {
			op := tr.record("op", p.job.ID, -1, p.submitted, rec.latency)
			tr.record("runner.Submit", p.job.ID, op, p.submitted, p.submitDur)
			tr.record("runner.Wait", p.job.ID, op, p.submitted.Add(p.submitDur), rec.latency-p.submitDur)
		}
	}
	return recs, nil
}

// waitAll waits for every job and returns when each was first seen
// done.
func waitAll(ps []pending) []time.Time {
	doneAt := make([]time.Time, len(ps))
	ch := make(chan struct{})
	for i, p := range ps {
		go func() {
			<-p.job.Done()
			doneAt[i] = time.Now()
			ch <- struct{}{}
		}()
	}
	for range ps {
		<-ch
	}
	return doneAt
}

func checkOf(res runner.Result) jobCheck {
	n := 0
	for _, s := range res.Samples {
		n += s.N()
	}
	return jobCheck{spec: res.Spec, counters: fieldsOf(res.Counters), samples: n, sampled: res.Sampled}
}

// e2e reports the end-to-end metrics of an in-process run.  Every op
// is a job submitted and computed, so write latency is op latency.
// Throughput and MIPS are taken per round and the median over rounds
// reported, so one round slowed by the host moves them less; latency
// quantiles are over all the run's jobs.
func (run *inprocRun) e2e(setups []float64) map[string]float64 {
	var lat, rates, mips []float64
	for i, recs := range run.rounds {
		var instrs float64
		ok := 0
		for _, j := range recs {
			if !j.ok {
				lat = append(lat, failedLatencyMS)
				continue
			}
			ok++
			lat = append(lat, float64(j.latency)/1e6)
			instrs += float64(j.res.Counters.Instructions)
		}
		wall := run.walls[i].Seconds()
		rates = append(rates, float64(ok)/wall)
		mips = append(mips, instrs/wall/1e6)
	}
	return map[string]float64{
		"setup_s":          median(setups),
		"ops_per_s":        median(rates),
		"latency_ms":       median(lat),
		"latency_p90_ms":   quantile(lat, 0.9),
		"write_latency_ms": median(lat),
		"sim_mips":         median(mips),
		"peak_rss_mb":      peakRSSMB(0),
	}
}

func (run *inprocRun) okCount() int {
	n := 0
	for _, j := range run.jobs {
		if j.ok {
			n++
		}
	}
	return n
}

// layers reports the per-layer metrics the live loop itself yields:
// runner and pool counters, per-workload MIPS, the simulated
// statistics of the first round, and the sampling geometry.
func (run *inprocRun) layers() map[string]float64 {
	m := map[string]float64{}
	var queue, exec []float64
	var busy float64
	type mipsAcc struct{ instrs, ns float64 }
	mips := map[string]*mipsAcc{}
	var ffReqs, ffNS, detail, perWin float64
	warmed := map[string]bool{}
	repeats := 0
	for _, j := range run.jobs {
		if !j.ok {
			continue
		}
		res := j.res
		queue = append(queue, float64(j.latency-res.Wall)/1e6)
		exec = append(exec, float64(res.Wall)/1e6)
		busy += float64(res.Wall)
		s := res.Spec
		wk := fmt.Sprintf("%s|%s|%d|%d", s.Workload, s.Config, s.Seed, s.Warm)
		if warmed[wk] {
			repeats++
		}
		warmed[wk] = true
		if res.Sampled == nil {
			k := "mips." + s.Workload + "." + string(s.Config)
			if mips[k] == nil {
				mips[k] = &mipsAcc{}
			}
			mips[k].instrs += float64(res.Counters.Instructions)
			mips[k].ns += float64(res.MeasureWall)
			continue
		}
		sr := res.Sampled
		ffReqs += float64(sr.FastForwarded * sr.Windows)
		ffNS += float64(res.MeasureWall)
		detail += float64((sr.Warmed + sr.Measured) * sr.Windows)
		perWin += float64((sr.FastForwarded + sr.Warmed + sr.Measured) * sr.Windows)
	}
	for k, a := range mips {
		m[k] = a.instrs / a.ns * 1e3 // instructions per ns * 1e3 = MIPS
	}
	m["ff.reqs_per_s"] = ratio(ffReqs, ffNS/1e9)
	m["sampled.detail_share"] = ratio(detail, perWin)
	m["warm.repeat_share"] = ratio(float64(repeats), float64(run.okCount()))
	m["runner.queue_wait_ms"] = median(queue)
	m["runner.exec_ms"] = median(exec)
	m["runner.busy_share"] = ratio(busy, float64(run.wall)*float64(run.workers))
	m["runner.cache_hit_share"] = ratio(float64(run.cacheHits), float64(run.submits))
	m["runner.retries"] = float64(run.retries)
	m["runner.failed"] = float64(run.failed)
	m["pool.image_hit_share"] = ratio(float64(run.poolHits), float64(run.poolHits+run.poolMisses))
	m["pool.shared_mb"] = float64(run.sharedBytes) / (1 << 20)
	if len(run.rounds) > 0 {
		for k, v := range simStats(run.rounds[0]) {
			m[k] = v
		}
	}
	return m
}

// simStats derives the simulated-machine statistics of one round's
// exact base/enhanced jobs.  They depend only on the seed, so they
// repeat exactly across runs and hosts.
func simStats(recs []jobRecord) map[string]float64 {
	m := map[string]float64{}
	byCfg := map[runner.ConfigKind]*[2]float64{} // cycles, requests
	baseCycles := map[string]float64{}
	var instrs, l1i, itlb, mispred, flushes, skips, calls, enhInstrs float64
	var speedups []float64
	for _, j := range recs {
		res := j.res
		if !j.ok || res.Sampled != nil {
			continue
		}
		c, s := res.Counters, res.Spec
		acc := byCfg[s.Config]
		if acc == nil {
			acc = &[2]float64{}
			byCfg[s.Config] = acc
		}
		acc[0] += float64(c.Cycles)
		acc[1] += float64(s.Measure)
		instrs += float64(c.Instructions)
		l1i += float64(c.L1IMisses)
		itlb += float64(c.ITLBMisses)
		mispred += float64(c.Mispredicts)
		switch s.Config {
		case runner.Base:
			baseCycles[s.Workload] = float64(c.Cycles)
		case runner.Enhanced:
			flushes += float64(c.ABTBFlushes)
			enhInstrs += float64(c.Instructions)
			skips += float64(c.TrampSkips)
			calls += float64(c.TrampCalls)
		}
	}
	for _, j := range recs {
		s := j.res.Spec
		if j.ok && j.res.Sampled == nil && s.Config == runner.Enhanced && baseCycles[s.Workload] > 0 {
			b := baseCycles[s.Workload]
			speedups = append(speedups, 100*(b-float64(j.res.Counters.Cycles))/b)
		}
	}
	for _, c := range paperConfigs {
		if acc := byCfg[runner.ConfigKind(c)]; acc != nil {
			m["sim.cycles_per_req."+c] = ratio(acc[0], acc[1])
		}
	}
	if len(speedups) > 0 {
		var sum float64
		for _, v := range speedups {
			sum += v
		}
		m["sim.speedup_pct"] = sum / float64(len(speedups))
	}
	m["sim.tramp_skip_share"] = ratio(skips, calls)
	m["sim.l1i_mpki"] = ratio(1000*l1i, instrs)
	m["sim.itlb_mpki"] = ratio(1000*itlb, instrs)
	m["sim.mispred_pki"] = ratio(1000*mispred, instrs)
	m["sim.abtb_flushes_per_kinstr"] = ratio(1000*flushes, enhInstrs)
	return m
}

// screenError is the mean relative error, in percent, of the sampled
// per-request cost against the exact one over a screen's jobs.  The
// exact references run after the timed window.
func screenError(ctx context.Context, cfg *config, recs []jobRecord) (float64, error) {
	r := runner.New(runner.Options{Workers: cfg.workers})
	defer r.Close()
	exact := map[string]float64{}
	var specs []runner.JobSpec
	for _, j := range recs {
		s := j.res.Spec
		s.SampleWindows, s.SampleWarmup, s.TimelineOff = 0, 0, false
		k := fmt.Sprintf("%s|%s", s.Workload, s.Config)
		if _, ok := exact[k]; !ok {
			exact[k] = 0
			specs = append(specs, runner.JobSpec{Workload: s.Workload, Config: s.Config, Seed: s.Seed, Warm: s.Warm, Measure: s.Measure, TimelineOff: true})
		}
	}
	results, err := r.RunAll(ctx, specs)
	if err != nil {
		return 0, fmt.Errorf("exact references: %w", err)
	}
	for _, res := range results {
		exact[fmt.Sprintf("%s|%s", res.Spec.Workload, res.Spec.Config)] = core.Micros(res.Counters.Cycles) / float64(res.Spec.Measure)
	}
	var sum float64
	n := 0
	for _, j := range recs {
		if !j.ok || j.res.Sampled == nil {
			continue
		}
		want := exact[fmt.Sprintf("%s|%s", j.res.Spec.Workload, j.res.Spec.Config)]
		sum += 100 * math.Abs(j.res.Sampled.Metrics["us_per_req"].Mean-want) / want
		n++
	}
	return ratio(sum, float64(n)), nil
}

// replayStats are the per-layer timings of an explicit replay.
type replayStats struct {
	mu                                        sync.Mutex
	warmup, measure, gen, link, compile, fork []float64 // ms per call
	kernelNS, jobNS                           float64
}

// replay re-executes jobs as explicit calls into each layer, the
// sequence runner.execute performs, each call timed as a span under
// one job span: pool.Workload, pool.ImageSystem (a second call on a
// master-image miss times a fork alone), a direct cpu.Compile of the
// linked image, workload.NewDriver, WarmupContext and
// RunContext/RunSampledContext.  Jobs run on as many goroutines as the
// live loop had workers, sharing one pool as the runner's jobs do.
// Each replayed job's counters must equal the live run's (want, by job
// key).
func replay(ctx context.Context, specs []runner.JobSpec, workers int, want map[string]counterFields, g *gate, tr *tracer) (*replayStats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := pool.New(pool.Options{})
	rs := &replayStats{}
	work := make(chan runner.JobSpec)
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range work {
				if err := rs.replayJob(ctx, p, spec, want, g, tr); err != nil {
					once.Do(func() { first = err; cancel() })
				}
			}
		}()
	}
feed:
	for _, spec := range specs {
		select {
		case work <- spec:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	return rs, first
}

// replayJob replays one job and records its timings.
func (rs *replayStats) replayJob(ctx context.Context, p *pool.Pool, spec runner.JobSpec, want map[string]counterFields, g *gate, tr *tracer) error {
	norm, err := spec.Normalize()
	if err != nil {
		return err
	}
	key, _ := norm.Key()
	id := runner.IDFromKey(key)
	ws, _ := runner.WorkloadByName(norm.Workload)
	hw, err := norm.Config.Config(norm.Seed)
	if err != nil {
		return err
	}
	var gen, link, fork, compile []float64
	ms := func(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
	jobStart := time.Now()
	root := tr.begin("job", id, -1)

	t := time.Now()
	sp := tr.begin("pool.Workload", id, root)
	w, hit := p.Workload(norm.Workload, ws.Gen, norm.Seed)
	tr.end(sp)
	if !hit {
		gen = append(gen, ms(t))
	}

	t = time.Now()
	sp = tr.begin("pool.ImageSystem", id, root)
	sys, hit, err := p.ImageSystem(norm.Workload, norm.Seed, w, hw)
	tr.end(sp)
	if err != nil {
		return err
	}
	if !hit {
		link = append(link, ms(t))
		t = time.Now()
		sp = tr.begin("pool.ImageSystem", id, root)
		_, _, err := p.ImageSystem(norm.Workload, norm.Seed, w, hw)
		tr.end(sp)
		if err != nil {
			return err
		}
		fork = append(fork, ms(t))
		t = time.Now()
		sp = tr.begin("cpu.Compile", id, root)
		cpu.Compile(sys.Image(), hw.Hardware.L1I.LineBytes)
		tr.end(sp)
		compile = append(compile, ms(t))
	}

	sp = tr.begin("workload.NewDriver", id, root)
	d := workload.NewDriver(w, sys, workload.DriverSeed(norm.Seed))
	tr.end(sp)

	t = time.Now()
	sp = tr.begin("workload.Warmup", id, root)
	err = d.WarmupContext(ctx, norm.Warm)
	tr.end(sp)
	if err != nil {
		return err
	}
	warm := time.Since(t)

	var got cpu.Counters
	t = time.Now()
	if norm.SampleWindows > 0 {
		sp = tr.begin("workload.RunSampled", id, root)
		run, err := d.RunSampledContext(ctx, norm.Measure, norm.SampleWindows, norm.SampleWarmup)
		tr.end(sp)
		if err != nil {
			return err
		}
		for _, win := range run.Windows {
			got = got.Add(win.Counters)
		}
	} else {
		var col *timeline.Collector
		if norm.TimelineInterval > 0 {
			col = timeline.NewCollector(norm.TimelineInterval, timeline.DefaultMaxPoints)
			col.Attach(sys.CPU())
		}
		sp = tr.begin("workload.Run", id, root)
		_, err := d.RunContext(ctx, norm.Measure)
		tr.end(sp)
		if col != nil {
			col.Close()
		}
		if err != nil {
			return err
		}
		got = sys.Counters()
	}
	meas := time.Since(t)
	tr.end(root)
	job := time.Since(jobStart)

	if w, ok := want[key]; ok && fieldsOf(got) != w {
		g.mismatch(fmt.Sprintf("%s: replayed counters %+v differ from the live run's %+v", key, fieldsOf(got), w))
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.gen = append(rs.gen, gen...)
	rs.link = append(rs.link, link...)
	rs.fork = append(rs.fork, fork...)
	rs.compile = append(rs.compile, compile...)
	rs.warmup = append(rs.warmup, float64(warm)/1e6)
	rs.measure = append(rs.measure, float64(meas)/1e6)
	rs.kernelNS += float64(warm + meas)
	rs.jobNS += float64(job)
	return nil
}

// metrics reports the replay's per-layer numbers.
func (rs *replayStats) metrics() map[string]float64 {
	var warm, meas float64
	for i := range rs.warmup {
		warm += rs.warmup[i]
		meas += rs.measure[i]
	}
	return map[string]float64{
		"warmup_ms":         median(rs.warmup),
		"measure_ms":        median(rs.measure),
		"warmup.share":      ratio(warm, warm+meas),
		"kernel.exec_share": ratio(rs.kernelNS, rs.jobNS),
		"pool.generate_ms":  median(rs.gen),
		"pool.link_ms":      median(rs.link),
		"pool.compile_ms":   median(rs.compile),
		"pool.fork_ms":      median(rs.fork),
	}
}
