#!/usr/bin/env bash
# Build the benchmark from source and run it with the given flags.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ at the root of the checkout, which is also where the
# benchmark keeps its checkpoint directories and span files.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=$root/.bench_build
export GOCACHE=$out/gocache GOPATH=$out/gopath GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
commit=$(git describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)
go build -C benchmark -ldflags "-X main.gitCommit=$commit" -o "$out/bench" .
exec "$out/bench" "$@"
