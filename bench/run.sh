#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh --workload cluster-read --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout, so nothing is read from or written to the
# user's own Go caches.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
