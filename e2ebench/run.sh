#!/usr/bin/env bash
# Builds bandana-server from this source tree and the benchmark, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload paper-5pct --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, the Go build cache included.
set -euo pipefail
out=.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$out/bin/bandana-server" ./cmd/bandana-server >&2
(cd e2ebench && go build -o "../$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" --server "$out/bin/bandana-server" --out "$out/runs" "$@"
