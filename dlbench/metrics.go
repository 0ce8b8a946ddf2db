package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit.  The two tables
// below are the benchmark's catalogue; BENCHMARK.json at the
// repository root lists the same names and units (the smoke test
// checks that they agree).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator or the service
// sees.  Every workload reports all of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"write_latency_ms", "ms"},
	{"sim_mips", "MIPS"},
	{"peak_rss_mb", "MB"},
}

// paperConfigs are the two configurations of the paper's evaluation
// matrix, the ones runner.SuiteSpecs pairs per workload.
var paperConfigs = []string{"base", "enhanced"}

// perLayer are the traced run's metrics.  A layer a workload does not
// exercise reports 0 (for example the HTTP layer on the in-process
// sweeps); NOTES.md maps each metric to the workload that loads it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"warmup_ms", "ms"},
		{"measure_ms", "ms"},
		{"warmup.share", "ratio"},
		{"kernel.exec_share", "ratio"},
	}
	for _, w := range []string{"apache", "firefox", "memcached", "mysql"} {
		for _, c := range paperConfigs {
			defs = append(defs, metricDef{"mips." + w + "." + c, "MIPS"})
		}
	}
	defs = append(defs,
		metricDef{"ff.reqs_per_s", "1/s"},
		metricDef{"sampled.detail_share", "ratio"},
		metricDef{"warm.repeat_share", "ratio"},
		metricDef{"screen_err_pct", "%"},
	)
	for _, p := range profPackages {
		defs = append(defs, metricDef{"prof." + p, "ratio"})
	}
	defs = append(defs, metricDef{"prof.gc", "ratio"})
	for _, c := range paperConfigs {
		defs = append(defs, metricDef{"sim.cycles_per_req." + c, "cycles"})
	}
	defs = append(defs,
		metricDef{"sim.speedup_pct", "%"},
		metricDef{"sim.tramp_skip_share", "ratio"},
		metricDef{"sim.l1i_mpki", "1/kinstr"},
		metricDef{"sim.itlb_mpki", "1/kinstr"},
		metricDef{"sim.mispred_pki", "1/kinstr"},
		metricDef{"sim.abtb_flushes_per_kinstr", "1/kinstr"},

		metricDef{"pool.generate_ms", "ms"},
		metricDef{"pool.link_ms", "ms"},
		metricDef{"pool.compile_ms", "ms"},
		metricDef{"pool.fork_ms", "ms"},
		metricDef{"pool.image_hit_share", "ratio"},
		metricDef{"pool.shared_mb", "MB"},

		metricDef{"runner.queue_wait_ms", "ms"},
		metricDef{"runner.busy_share", "ratio"},
		metricDef{"runner.exec_ms", "ms"},
		metricDef{"runner.cache_hit_share", "ratio"},
		metricDef{"runner.retries", "count"},
		metricDef{"runner.failed", "count"},

		metricDef{"store.open_ms", "ms"},
		metricDef{"store.replay_mb_per_s", "MB/s"},
		metricDef{"store.get_us", "us"},
		metricDef{"store.put_us", "us"},
		metricDef{"store.mb", "MB"},

		metricDef{"http.get_ms", "ms"},
		metricDef{"http.timeline_ms", "ms"},
		metricDef{"http.submit_ms", "ms"},
		metricDef{"http.polls_per_write", "count"},
		metricDef{"http.resp_kb", "KB"},
		metricDef{"http.non2xx", "count"},

		metricDef{"cluster.hop_ms", "ms"},
		metricDef{"cluster.forwarded_share", "ratio"},
		metricDef{"cluster.failovers", "count"},

		metricDef{"trace.overhead_pct", "%"},
	)
	return defs
}()

// failedLatencyMS stands in for the latency of a failed or refused op:
// it misses every latency limit, and stays a finite JSON number.
const failedLatencyMS = 1e9

// quantile returns the Harrell–Davis estimate of the q-quantile (0..1)
// of xs: a weighted mean of every order statistic, with weights from
// the Beta(q(n+1), (1-q)(n+1)) distribution.  Unlike the order
// statistic nearest q, it moves smoothly when the samples fall into
// clusters, as the job latencies of a sweep do (each job's place in
// the queue sets its latency), so a run's figure does not jump between
// clusters from one run to the next.  It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes, 6.4).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the high-water resident set size (VmHWM) of a
// process from /proc; pid 0 means this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
