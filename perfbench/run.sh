#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload explore-walk --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, the binary, datasets, span files)
# goes under .bench_build in the current directory.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
