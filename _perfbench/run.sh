#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it with the given
# arguments. Run it from the root of the repository:
#
#   bash _perfbench/run.sh --workload paper_sweep --seed 1 --seconds 10 --trace 0
#
# Everything the go command writes (build cache, temporary files, GOPATH,
# its configuration and telemetry directory) stays under .bench_build/, and
# no module is fetched: the benchmark's module requires only the
# repository's own, through a replace directive.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd _perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
