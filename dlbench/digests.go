package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/runner"
)

// Coverage of the committed digests, from the default seed on: paper
// sweeps and screens over consecutive seeds, the default seed's
// writes, and the restart-mix fixture.
const (
	digestPaperSeeds  = 24
	digestScreenSeeds = 12
)

// writeDigests computes the counter digest of every job the committed
// reference covers and writes the reference file.  Regenerate it with
//
//	bash dlbench/run.sh -gen-digests "$PWD/dlbench/testdata/digests.json"
//
// only when a change is meant to alter simulated results.
func writeDigests(ctx context.Context, cfg *config, path string) error {
	const seed = 1
	var specs []runner.JobSpec
	for s := uint64(seed); s < seed+digestPaperSeeds; s++ {
		specs = append(specs, runner.SuiteSpecs(s, 1)...)
	}
	for s := uint64(seed); s < seed+digestScreenSeeds; s++ {
		sc, err := screenSpecs(s)
		if err != nil {
			return err
		}
		specs = append(specs, sc...)
	}
	for n := 0; n < digestWrites; n++ {
		specs = append(specs, writeSpec(seed, n))
	}
	specs = append(specs, fixtureSpecs()...)

	out := digestFile{DefaultSeed: seed, Digests: map[string]string{}}
	const chunk = 64
	for i := 0; i < len(specs); i += chunk {
		// A runner per chunk keeps memory to one chunk's results.
		r := runner.New(runner.Options{Workers: cfg.workers})
		results, err := r.RunAll(ctx, specs[i:min(i+chunk, len(specs))])
		r.Close()
		if err != nil {
			return err
		}
		for _, res := range results {
			if reason := invariantViolation(checkOf(res)); reason != "" {
				return fmt.Errorf("%s: %s", res.Key, reason)
			}
			out.Digests[res.Key] = fieldsOf(res.Counters).digest()
		}
		fmt.Fprintf(os.Stderr, "dlbench: %d/%d digests\n", len(out.Digests), len(specs))
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
