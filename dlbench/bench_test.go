package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
)

// TestCatalogueMatchesBenchmarkJSON checks that BENCHMARK.json lists
// exactly the metrics this program reports, with the same units.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	sameDefs(t, "end_to_end", spec.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", spec.PerLayer, perLayer)
}

type metricJSON struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func sameDefs(t *testing.T, what string, got []metricJSON, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", what, len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
			t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
		}
	}
}

// TestQuantile checks the Harrell–Davis estimator on inputs whose
// quantiles are known.
func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{5, 4, 3, 2, 1}, 0.5, 3},
		{[]float64{2, 2, 2, 2}, 0.9, 2},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	xs := []float64{1, 1, 1, 1, 9, 9, 9, 9, 9}
	if lo, mid, hi := quantile(xs, 0.1), quantile(xs, 0.5), quantile(xs, 0.9); !(1 <= lo && lo < mid && mid < hi && hi <= 9) {
		t.Errorf("quantiles of two clusters not ordered inside the range: %v %v %v", lo, mid, hi)
	}
}

// TestCorruptDigestCaught runs one real job and shows the gate passes
// it against its committed digest and fails it once that digest is
// corrupted.
func TestCorruptDigestCaught(t *testing.T) {
	r := runner.New(runner.Options{Workers: 1})
	defer r.Close()
	res, err := r.Run(context.Background(), fixtureSpecs()[len(fixtureSpecs())-1])
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGate()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := g.digests[res.Key]
	if !ok {
		t.Fatalf("no committed digest for %s", res.Key)
	}
	if reason := g.check(checkOf(res)); reason != "" || g.verified != 1 {
		t.Fatalf("intact digest: reason %q, verified %d", reason, g.verified)
	}
	g.digests[res.Key] = "0" + want[1:]
	if want[0] == '0' {
		g.digests[res.Key] = "1" + want[1:]
	}
	if reason := g.check(checkOf(res)); reason == "" {
		t.Fatal("corrupted digest passed the gate")
	}
	if len(g.mismatches) != 1 {
		t.Fatalf("mismatches %v, want one", g.mismatches)
	}

	// A structural violation fails on any seed, digest or not.
	bad := checkOf(res)
	bad.spec.Seed += 1 << 50
	bad.counters.TrampSkips = 1
	bad.spec.Config = runner.Base
	if invariantViolation(bad) == "" {
		t.Fatal("trampoline skips on a base config passed the invariants")
	}
}

// TestSmoke runs every workload at its smallest size, untraced and
// traced, through the built binaries.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dlbench")
	dlsimd := filepath.Join(dir, "dlsimd")
	for _, b := range [][]string{{"-o", bin, "."}, {"-o", dlsimd, "repro/cmd/dlsimd"}} {
		if out, err := exec.Command("go", append([]string{"build"}, b...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "-workload", w, "-seed", "1", "-seconds", "1", "-trace", trace,
					"-dlsimd", dlsimd, "-work", filepath.Join(dir, "work"), "-go", goBin)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v", d.name, m.Value)
					}
				}
			})
		}
	}
}
