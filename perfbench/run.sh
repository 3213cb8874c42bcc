#!/usr/bin/env bash
# Builds the benchmark and the cubelsiserve binary from the checkout it is
# started in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload search-wide --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temporary files, binaries, model files, traces).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/cubelsiserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/cubelsiserve and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/bin/cubelsiserve" ./cmd/cubelsiserve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -server "$out/bin/cubelsiserve" -workdir "$out/work" "$@"
