package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/runner"
)

//go:embed testdata/digests.json
var digestsJSON []byte

// digestFile is the committed output-correctness reference: one
// counter digest per job key (runner's canonical key, which names the
// workload, config, seed and budgets), for every job a run with the
// default seed makes, and more.  A job whose key has a digest is
// compared against it whatever the run's seed.
type digestFile struct {
	DefaultSeed uint64            `json:"default_seed"`
	Digests     map[string]string `json:"digests"`
}

// counterFields are the counters every job exposes both in-process
// (cpu.Counters) and over HTTP (the result JSON of GET /v1/jobs/{id}).
type counterFields struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	TrampInstrs  uint64 `json:"tramp_instrs"`
	TrampCalls   uint64 `json:"tramp_calls"`
	TrampSkips   uint64 `json:"tramp_skips"`
	Resolutions  uint64 `json:"resolutions"`
}

func fieldsOf(c cpu.Counters) counterFields {
	return counterFields{c.Instructions, c.Cycles, c.TrampInstrs, c.TrampCalls, c.TrampSkips, c.Resolutions}
}

// digest hashes the counters; any change to a simulated result changes
// it.
func (f counterFields) digest() string {
	var b [48]byte
	for i, v := range []uint64{f.Instructions, f.Cycles, f.TrampInstrs, f.TrampCalls, f.TrampSkips, f.Resolutions} {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	sum := sha256.Sum256(b[:])
	return hex.EncodeToString(sum[:8])
}

// jobCheck is what the gate needs to know about one completed job.
type jobCheck struct {
	spec     runner.JobSpec // normalized
	counters counterFields
	samples  int // latency samples recorded over the measured requests
	sampled  *runner.SampledResult
}

// gate checks every job of a run: its counters must match the
// committed digest when one exists, and the structural invariants
// must hold on every seed.  Safe for concurrent use.
type gate struct {
	digests map[string]string

	mu         sync.Mutex
	checked    int
	verified   int // jobs compared against a committed digest
	mismatches []string
}

func newGate() (*gate, error) {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return nil, fmt.Errorf("reading committed digests: %w", err)
	}
	return &gate{digests: f.Digests}, nil
}

// check records one job and returns the reason it failed the gate, or
// "" when it passed.
func (g *gate) check(j jobCheck) string {
	key, _ := j.spec.Key()
	reason := invariantViolation(j)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checked++
	if want, ok := g.digests[key]; ok && reason == "" {
		g.verified++
		if got := j.counters.digest(); got != want {
			reason = fmt.Sprintf("counter digest %s, committed %s", got, want)
		}
	}
	if reason != "" {
		g.mismatches = append(g.mismatches, key+": "+reason)
	}
	return reason
}

// mismatch records a failed check made outside check (a restored read
// whose body differs from the recorded one).
func (g *gate) mismatch(what string) {
	g.mu.Lock()
	g.mismatches = append(g.mismatches, what)
	g.mu.Unlock()
}

// invariantViolation checks what must hold on every seed: a
// configuration without an ABTB never skips a trampoline, and the
// latency samples cover exactly the measured requests.
//
// The in-tree sampled-accuracy gate (BenchmarkSampledVsExact) expects
// the exact value inside the sampled 95% interval only for its own
// window geometry, which no screen-sweep job uses, so the interval is
// not asserted here; screen_err_pct reports the error instead.
func invariantViolation(j jobCheck) string {
	if !hasABTB(j.spec.Config) && j.counters.TrampSkips != 0 {
		return fmt.Sprintf("%d trampoline skips without an ABTB", j.counters.TrampSkips)
	}
	want := j.spec.Measure
	if j.sampled != nil {
		want = j.sampled.Windows * j.sampled.Measured
		if j.sampled.Windows != j.spec.SampleWindows {
			return fmt.Sprintf("%d sampling windows, spec asked for %d", j.sampled.Windows, j.spec.SampleWindows)
		}
		if per := j.sampled.FastForwarded + j.sampled.Warmed + j.sampled.Measured; per != j.spec.Measure/j.sampled.Windows {
			return fmt.Sprintf("%d windows of %d requests, measure budget %d", j.sampled.Windows, per, j.spec.Measure)
		}
	}
	if j.samples != want {
		return fmt.Sprintf("%d latency samples, want %d", j.samples, want)
	}
	if j.counters.Instructions == 0 {
		return "no instructions retired"
	}
	return ""
}

func hasABTB(k runner.ConfigKind) bool {
	return k == runner.Enhanced || k == runner.EnhancedARM
}
