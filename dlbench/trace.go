package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the program's public functions.  Spans of one job or one
// client op share its ID; Parent indexes the causing span (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	Job    string `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit.
// A nil *tracer records nothing, so untraced runs pay one nil check
// per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle.
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span returned by begin.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds a span whose start and duration were taken elsewhere.
func (t *tracer) record(name, job string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: s, End: s + int64(d)})
	return len(t.spans) - 1
}

// spanSummary aggregates spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summary reports, per span name, the count, the total duration and
// the self time: each span's duration minus the part of it covered by
// its child spans.
func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	by := map[string]*spanSummary{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		sum := by[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
		}
		d := s.End - s.Start
		sum.Count++
		sum.TotalMS += float64(d) / 1e6
		sum.SelfMS += float64(d-covered(children[i], s.Start, s.End)) / 1e6
	}
	out := make([]spanSummary, 0, len(by))
	for _, s := range by {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeTrace writes the spans and their summary as JSON.
func (t *tracer) writeTrace(path string, header any) error {
	sum := t.summary()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(struct {
		Host    any           `json:"host"`
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{header, sum, t.spans})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// profPackages are the modelled components whose share of CPU samples
// the traced run reports as prof.<name>.
var profPackages = []string{"setassoc", "cache", "tlb", "branch", "abtb", "mem", "cpu", "linker"}

// gcRoots are the runtime functions whose cumulative samples make up
// garbage-collection work: background marking, mark assists charged to
// allocating goroutines, and background sweeping.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep"}

// profiler takes a CPU profile of this process.
type profiler struct {
	f *os.File
}

func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{f: f}, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// profShares reads the profile with `go tool pprof -top` and returns
// the share of CPU samples flat in each modelled package, plus the
// cumulative share of garbage collection.
func profShares(goBin, path string) (map[string]float64, error) {
	out, err := exec.Command(goBin, "tool", "pprof", "-top", "-nodefraction=0", "-edgefraction=0", "-nodecount=1000000", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(string(out))
}

// parseTop sums the rows of a `pprof -top` listing by package.
func parseTop(text string) (map[string]float64, error) {
	shares := map[string]float64{}
	var total time.Duration
	for _, line := range strings.Split(text, "\n") {
		if i := strings.Index(line, "Total samples = "); i >= 0 {
			f := strings.Fields(line[i+len("Total samples = "):])
			if len(f) > 0 {
				total, _ = time.ParseDuration(f[0])
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err1 := time.ParseDuration(f[0])
		cum, err2 := time.ParseDuration(f[3])
		if err1 != nil || err2 != nil {
			continue
		}
		fn := strings.Join(f[5:], " ")
		for _, g := range gcRoots {
			if fn == g {
				shares["prof.gc"] += float64(cum)
			}
		}
		for _, p := range profPackages {
			if strings.HasPrefix(fn, "repro/internal/"+p+".") {
				shares["prof."+p] += float64(flat)
			}
		}
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof listing has no sample total")
	}
	for k, v := range shares {
		shares[k] = v / float64(total)
	}
	return shares, nil
}
