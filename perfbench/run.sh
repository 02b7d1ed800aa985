#!/usr/bin/env bash
# Builds pdpd and the benchmark harness from the checkout's sources, then
# runs the harness with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-miss --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Build outputs, the Go build cache and
# the run's scratch files all stay under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pdpd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout (go.mod, cmd/pdpd and perfbench/ are needed)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/pdpd" ./cmd/pdpd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -pdpd "$out/pdpd" -work "$out/work" "$@"
