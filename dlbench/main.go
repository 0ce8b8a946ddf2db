// Command dlbench is the repository's benchmark: it times the ABTB
// simulator and the dlsimd service end to end on three workloads and,
// in a separate traced run, layer by layer.  See NOTES.md for what each
// workload and metric is for.  Build and run it through run.sh from
// the repository root:
//
//	bash dlbench/run.sh --workload paper-exact --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records
// the host and settings.  A correctness-gate failure makes the command
// exit 1 after printing its report.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/runner"
)

// setupReps is how many times a run sets up, for the set-up median;
// the last set-up is the one the run uses.
const setupReps = 9

var workloads = []string{"paper-exact", "screen-sweep", "restart-mix"}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workers  int // worker threads of the in-process runner, or client connections

	dlsimd string // the built dlsimd binary
	work   string // build and scratch directory inside the checkout
	goBin  string // the go command, for reading CPU profiles
	tmp    string // this invocation's scratch directory
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 30, "measuring time of one run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	dlsimd := fs.String("dlsimd", "", "path of the built dlsimd binary")
	work := fs.String("work", ".bench_build/dlbench", "build and scratch directory")
	goBin := fs.String("go", "go", "the go command, used to read CPU profiles")
	genDigests := fs.String("gen-digests", "", "write the committed counter digests to this file and exit")
	probe := fs.Bool("setup-probe", false, "set up the workload's first round, print ready and exit (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		workers:  runtime.NumCPU(),
		dlsimd:   *dlsimd,
		goBin:    *goBin,
	}
	var err error
	if cfg.work, err = filepath.Abs(*work); err != nil {
		return fail(err)
	}
	cfg.tmp = filepath.Join(cfg.work, "tmp", fmt.Sprintf("%d", os.Getpid()))
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(cfg.tmp)
	ctx := context.Background()
	if *probe {
		if err := setupProbe(cfg, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if *genDigests != "" {
		if err := writeDigests(ctx, cfg, *genDigests); err != nil {
			return fail(err)
		}
		return 0
	}
	if !validWorkload(cfg.workload) {
		return fail(fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", ")))
	}
	if cfg.workload == "restart-mix" && cfg.dlsimd == "" {
		return fail(fmt.Errorf("restart-mix needs -dlsimd"))
	}
	g, err := newGate()
	if err != nil {
		return fail(err)
	}

	var res *result
	if cfg.trace {
		res, err = runTraced(ctx, cfg, g, args)
	} else {
		res, err = runWorkload(ctx, cfg, g, nil)
	}
	if err != nil {
		return fail(err)
	}
	rep := report{Correct: len(g.mismatches) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	values := res.e2e
	if cfg.trace {
		defs, values = perLayer, res.layers
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	for _, m := range g.mismatches {
		fmt.Fprintln(os.Stderr, "dlbench: correctness gate:", m)
	}
	fmt.Fprintf(os.Stderr, "dlbench: %d jobs checked, %d against committed digests, %d gate failures\n",
		g.checked, g.verified, len(g.mismatches))
	host, _ := json.Marshal(map[string]any{"host": hostRecord(cfg)})
	line, err := json.Marshal(rep)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n%s\n", host, line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dlbench:", err)
	return 1
}

// result is one run's outcome.
type result struct {
	e2e, layers       map[string]float64
	attempted, failed int
}

// runWorkload runs one workload.  With a tracer it also gathers the
// per-layer metrics: the live loop's own counters, an explicit replay
// of its jobs, and (where the workload has one) a replay of its store.
func runWorkload(ctx context.Context, cfg *config, g *gate, tr *tracer) (*result, error) {
	res := &result{layers: map[string]float64{}}
	merge := func(m map[string]float64) {
		for k, v := range m {
			res.layers[k] = v
		}
	}
	if cfg.workload == "restart-mix" {
		run, err := runRestart(ctx, cfg, g, tr)
		if err != nil {
			return nil, err
		}
		res.e2e = run.e2e()
		res.attempted = len(run.ops)
		for _, o := range run.ops {
			if !o.ok {
				res.failed++
			}
		}
		if tr == nil {
			return res, nil
		}
		merge(run.layers(cfg.workers))
		specs, want := run.replaySpecs(replayWrites)
		rs, err := replay(ctx, specs, cfg.workers, want, g, tr)
		if err != nil {
			return nil, err
		}
		merge(rs.metrics())
		sm, err := storeReplay([]string{filepath.Join(run.fixture.dir, "n0"), filepath.Join(run.fixture.dir, "n1")}, cfg.tmp, tr)
		if err != nil {
			return nil, err
		}
		merge(sm)
		return res, nil
	}

	run, setups, err := runInproc(ctx, cfg, g, tr)
	if err != nil {
		return nil, err
	}
	res.e2e = run.e2e(setups)
	res.attempted = len(run.jobs)
	res.failed = res.attempted - run.okCount()
	if tr == nil {
		return res, nil
	}
	merge(run.layers())
	first := run.rounds[0]
	var specs []runner.JobSpec
	want := map[string]counterFields{}
	for _, j := range first {
		if j.ok {
			specs = append(specs, j.res.Spec)
			want[j.res.Key] = fieldsOf(j.res.Counters)
		}
	}
	rs, err := replay(ctx, specs, cfg.workers, want, g, tr)
	if err != nil {
		return nil, err
	}
	merge(rs.metrics())
	if cfg.workload == "screen-sweep" {
		e, err := screenError(ctx, cfg, first)
		if err != nil {
			return nil, err
		}
		res.layers["screen_err_pct"] = e
		sm, err := storeReplay([]string{run.lastStore}, cfg.tmp, tr)
		if err != nil {
			return nil, err
		}
		merge(sm)
	}
	return res, nil
}

// runTraced is the per-layer run.  It first runs the same workload and
// seed untraced in a fresh process, then runs it traced here under a
// CPU profile; the difference in ops_per_s is the tracing overhead.
// Spans are written to the work directory at exit.
func runTraced(ctx context.Context, cfg *config, g *gate, args []string) (*result, error) {
	untraced, err := runChild(args)
	if err != nil {
		return nil, err
	}
	if !untraced.Correct {
		g.mismatch("the untraced half of the traced run failed its correctness gate")
	}
	profPath := filepath.Join(cfg.tmp, "cpu.pprof")
	prof, err := startProfile(profPath)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	res, err := runWorkload(ctx, cfg, g, tr)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	shares, err := profShares(cfg.goBin, profPath)
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		res.layers[k] = v
	}
	u := untraced.Metrics["ops_per_s"].Value
	res.layers["trace.overhead_pct"] = 100 * ratio(u-res.e2e["ops_per_s"], u)
	res.attempted += untraced.Attempted
	res.failed += untraced.Failed

	path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.writeTrace(path, hostRecord(cfg)); err != nil {
		return nil, err
	}
	for _, s := range tr.summary() {
		fmt.Fprintf(os.Stderr, "dlbench: span %-22s n=%-7d total %10.1f ms  self %10.1f ms\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	fmt.Fprintln(os.Stderr, "dlbench: spans written to", path)
	return res, nil
}

// runChild runs this benchmark untraced in a fresh process with the
// same arguments and returns its report.
func runChild(args []string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append(append([]string(nil), args...), "-trace", "0")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var ee *exec.ExitError
	if err != nil && !(errors.As(err, &ee) && ee.ExitCode() == 1) {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("untraced run printed no report: %w", err)
	}
	return &rep, nil
}

// hostRecord describes the host and the run's settings.
func hostRecord(cfg *config) map[string]any {
	return map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"cpu_model":        cpuModel(),
		"go_version":       runtime.Version(),
		"commit":           commit(),
		"source_digest":    sourceDigest(),
		"workload":         cfg.workload,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds.Seconds(),
		"trace":            cfg.trace,
		"workers":          cfg.workers,
		"connections":      cfg.workers,
		"poll_interval_ms": float64(pollInterval) / 1e6,
		"setup_reps":       setupReps,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, or "none" outside a git
// repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources of the checkout (the benchmark's
// own directory and hidden directories excluded), identifying the
// program measured even where there is no commit.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "dlbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
