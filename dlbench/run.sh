#!/usr/bin/env bash
# Builds the benchmark and the dlsimd service from this checkout, then
# runs one benchmark invocation.  Run it from the repository root:
#
#   bash dlbench/run.sh --workload paper-exact --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build cache, the restart-mix store fixture and
# per-run scratch files all live under .bench_build/dlbench, so nothing
# is read or written outside the checkout.  Build output goes to
# standard error; standard output carries only the benchmark's report.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/dlbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=

(cd "$root/dlbench" && go build -o "$out/dlbench" .) >&2
go build -o "$out/dlsimd" ./cmd/dlsimd >&2
exec "$out/dlbench" -dlsimd "$out/dlsimd" -work "$out" -go "$(command -v go)" "$@"
