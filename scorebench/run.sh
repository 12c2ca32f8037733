#!/usr/bin/env bash
# Builds scorebench and cmd/report from source and runs the benchmark.
# Run it from the repository root; every argument goes to scorebench:
#
#   bash scorebench/run.sh --workload cold-casestudy --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binaries and the traces stay in .bench_build,
# so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export HOME="$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/scorebench" && go build -buildvcs=false -o "$build/bin/scorebench" .)
go build -buildvcs=false -o "$build/bin/report" ./cmd/report
exec "$build/bin/scorebench" --report "$build/bin/report" --out "$build/scorebench" "$@"
