package runner

import (
	"strconv"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// metrics is the runner's instrument set on a telemetry registry.
// It is the single source of truth for the runner's operational
// counters: Stats(), GET /v1/stats and GET /metrics all read the same
// instruments (no shadow bookkeeping to drift).
//
// Metric name catalogue (see DESIGN.md §8 for the full contract):
//
//	dlsim_runner_workers                     gauge      pool width
//	dlsim_runner_queued                      gauge      jobs waiting for a worker
//	dlsim_runner_running                     gauge      jobs executing
//	dlsim_runner_jobs_completed_total        counter    jobs finished successfully
//	dlsim_runner_jobs_failed_total           counter    jobs finished in error
//	dlsim_runner_retries_total               counter    re-executed attempts
//	dlsim_runner_panics_total                counter    worker panics recovered
//	dlsim_runner_shed_total                  counter    submissions shed by admission control
//	dlsim_runner_retained                    gauge      completed jobs held in the result cache
//	dlsim_runner_evictions_total             counter    completed jobs evicted from the result cache
//	dlsim_runner_cache_hits_total            counter    submissions served from a completed result
//	dlsim_runner_coalesced_total             counter    submissions attached to an in-flight job
//	dlsim_runner_cache_misses_total          counter    submissions that started a simulation
//	dlsim_runner_warm_checkpoint_captures_total counter warmed systems checkpointed for a queued repeat
//	dlsim_runner_warm_checkpoint_hits_total  counter    jobs that skipped their warm phase via a checkpoint
//	dlsim_runner_warm_checkpoints            gauge      warm checkpoints currently held
//	dlsim_runner_queue_wait_ms               histogram  submit→worker-acquired wait, per attempt
//	dlsim_runner_exec_ms                     histogram  single-attempt execution time
//	dlsim_runner_backoff_ms                  histogram  retry backoff sleeps
//	dlsim_runner_job_wall_ms                 histogram  whole-job wall clock (completed jobs)
//	dlsim_runner_setup_wall_ms               histogram  generation+link+warmup wall clock
//	dlsim_runner_measure_wall_ms             histogram  measured-request wall clock
//	dlsim_sim_instructions_total{workload,config}   counter  simulated instructions retired
//	dlsim_sim_cycles_total{workload,config}         counter  simulated cycles
//	dlsim_sim_lib_calls_total{workload,config}      counter  trampoline-routed library calls
//	dlsim_sim_tramp_skips_total{workload,config}    counter  trampolines skipped via ABTB redirect
//	dlsim_sim_abtb_redirects_total{workload,config} counter  ABTB hits (redirected fetches)
//	dlsim_sim_abtb_flushes_total{workload,config}   counter  Bloom-triggered ABTB flushes
//	dlsim_sim_resolutions_total{workload,config}    counter  lazy symbol resolutions
type metrics struct {
	reg *telemetry.Registry

	workers *telemetry.Gauge
	queued  *telemetry.Gauge
	running *telemetry.Gauge

	completed *telemetry.Counter
	failed    *telemetry.Counter
	retries   *telemetry.Counter
	panics    *telemetry.Counter
	shed      *telemetry.Counter

	retained  *telemetry.Gauge
	evictions *telemetry.Counter

	cacheHits   *telemetry.Counter
	coalesced   *telemetry.Counter
	cacheMisses *telemetry.Counter

	warmCaptures *telemetry.Counter
	warmHits     *telemetry.Counter
	warmHeld     *telemetry.Gauge

	queueWaitMS   *telemetry.Histogram
	execMS        *telemetry.Histogram
	backoffMS     *telemetry.Histogram
	jobWallMS     *telemetry.Histogram
	setupWallMS   *telemetry.Histogram
	measureWallMS *telemetry.Histogram

	simInstructions *telemetry.CounterVec
	simCycles       *telemetry.CounterVec
	simLibCalls     *telemetry.CounterVec
	simTrampSkips   *telemetry.CounterVec
	simABTBHits     *telemetry.CounterVec
	simABTBFlushes  *telemetry.CounterVec
	simResolutions  *telemetry.CounterVec
}

// wallBuckets covers sub-ms smoke jobs through multi-minute full-scale
// simulations: 0.5ms·2^k up to ~4.4min, overflow beyond.
var wallBuckets = telemetry.ExponentialBuckets(0.5, 2, 20)

// backoffBuckets covers the retry policy's delay range (default 5ms
// base, 250ms cap; custom policies overflow gracefully).
var backoffBuckets = telemetry.ExponentialBuckets(1, 2, 10)

func newMetrics(reg *telemetry.Registry) *metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	const wl = "workload"
	const cf = "config"
	return &metrics{
		reg: reg,

		workers: reg.Gauge("dlsim_runner_workers", "Worker pool width."),
		queued:  reg.Gauge("dlsim_runner_queued", "Jobs waiting for a worker (including retry backoff)."),
		running: reg.Gauge("dlsim_runner_running", "Jobs currently executing."),

		completed: reg.Counter("dlsim_runner_jobs_completed_total", "Jobs finished successfully."),
		failed:    reg.Counter("dlsim_runner_jobs_failed_total", "Jobs finished in error (after retries)."),
		retries:   reg.Counter("dlsim_runner_retries_total", "Re-executed attempts after transient failures."),
		panics:    reg.Counter("dlsim_runner_panics_total", "Worker panics recovered into job failures."),
		shed:      reg.Counter("dlsim_runner_shed_total", "Submissions rejected by admission control (queue full)."),

		retained:  reg.Gauge("dlsim_runner_retained", "Completed jobs held in the result cache."),
		evictions: reg.Counter("dlsim_runner_evictions_total", "Completed jobs evicted from the result cache (LRU bound)."),

		cacheHits:   reg.Counter("dlsim_runner_cache_hits_total", "Submissions served from a completed cached result."),
		coalesced:   reg.Counter("dlsim_runner_coalesced_total", "Submissions coalesced onto an in-flight identical job."),
		cacheMisses: reg.Counter("dlsim_runner_cache_misses_total", "Submissions that started a new simulation."),

		warmCaptures: reg.Counter("dlsim_runner_warm_checkpoint_captures_total", "Warmed systems checkpointed because a queued job repeats their warm phase."),
		warmHits:     reg.Counter("dlsim_runner_warm_checkpoint_hits_total", "Jobs that started from a warm checkpoint instead of warming from cold."),
		warmHeld:     reg.Gauge("dlsim_runner_warm_checkpoints", "Warm checkpoints currently held for queued jobs."),

		queueWaitMS:   reg.Histogram("dlsim_runner_queue_wait_ms", "Wait from ready-to-run to worker acquired, per attempt.", wallBuckets),
		execMS:        reg.Histogram("dlsim_runner_exec_ms", "Single-attempt execution time.", wallBuckets),
		backoffMS:     reg.Histogram("dlsim_runner_backoff_ms", "Retry backoff sleeps.", backoffBuckets),
		jobWallMS:     reg.Histogram("dlsim_runner_job_wall_ms", "Whole-job wall clock over completed jobs.", wallBuckets),
		setupWallMS:   reg.Histogram("dlsim_runner_setup_wall_ms", "Per-job setup wall clock: generation, linking (or pool fetch), warmup.", wallBuckets),
		measureWallMS: reg.Histogram("dlsim_runner_measure_wall_ms", "Per-job measurement wall clock: measured requests only.", wallBuckets),

		simInstructions: reg.CounterVec("dlsim_sim_instructions_total", "Simulated instructions retired in measurement windows.", wl, cf),
		simCycles:       reg.CounterVec("dlsim_sim_cycles_total", "Simulated cycles in measurement windows.", wl, cf),
		simLibCalls:     reg.CounterVec("dlsim_sim_lib_calls_total", "Library calls resolving to a PLT slot.", wl, cf),
		simTrampSkips:   reg.CounterVec("dlsim_sim_tramp_skips_total", "Trampolines skipped via ABTB redirect.", wl, cf),
		simABTBHits:     reg.CounterVec("dlsim_sim_abtb_redirects_total", "ABTB hits: fetches redirected past the trampoline.", wl, cf),
		simABTBFlushes:  reg.CounterVec("dlsim_sim_abtb_flushes_total", "Bloom-filter-triggered ABTB flushes on GOT stores.", wl, cf),
		simResolutions:  reg.CounterVec("dlsim_sim_resolutions_total", "Lazy symbol resolutions executed.", wl, cf),
	}
}

// recordResult folds one completed simulation's headline counters into
// the per-workload series.  Counters are deltas over the measurement
// window, so repeated jobs accumulate meaningfully.
func (m *metrics) recordResult(res *Result) {
	w, c := res.Spec.Workload, string(res.Spec.Config)
	m.simInstructions.With(w, c).Add(res.Counters.Instructions)
	m.simCycles.With(w, c).Add(res.Counters.Cycles)
	m.simLibCalls.With(w, c).Add(res.Counters.TrampCalls)
	m.simTrampSkips.With(w, c).Add(res.Counters.TrampSkips)
	m.simABTBHits.With(w, c).Add(res.Counters.ABTBRedirects)
	m.simABTBFlushes.With(w, c).Add(res.Counters.ABTBFlushes)
	m.simResolutions.With(w, c).Add(res.Counters.Resolutions)
}

// traceResultAttrs annotates a job's root span with the headline
// outcome, so a dumped trace is self-describing.
func traceResultAttrs(sp *telemetry.Span, res *Result) {
	if sp == nil || res == nil {
		return
	}
	sp.SetAttr("instructions", strconv.FormatUint(res.Counters.Instructions, 10))
	sp.SetAttr("tramp_skips", strconv.FormatUint(res.Counters.TrampSkips, 10))
	sp.SetAttr("distinct_trampolines", strconv.Itoa(traceDistinct(res.Trace)))
}

func traceDistinct(rec *trace.Recorder) int {
	if rec == nil {
		return 0
	}
	return rec.Distinct()
}
