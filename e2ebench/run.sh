#!/usr/bin/env bash
# Builds the benchmark harness and the worker binary from source, then
# runs one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload book-stream --seed 1 --seconds 30 --trace 0
#   bash e2ebench/run.sh --compare old.json new.json
#
# Everything it builds or writes stays under the repository root:
# binaries and the Go build cache in .bench_build/e2ebench, result
# records and traces in .bench_out.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build/e2ebench"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

# The benchmark is its own module; its go.mod points at the repository
# root, so a tree holding only the benchmark fails here, before any run.
(cd "$here" && go build -o "$build/e2ebench" . && go build -o "$build/worker" dismastd/cmd/worker) >&2

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/e2ebench" -worker "$build/worker" -root "$root" -commit "$commit" "$@"
