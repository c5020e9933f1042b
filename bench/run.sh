#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash bench/run.sh --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1]
#
# Every build product (the Go build cache and the binary) goes under
# .bench_build/ in the current directory; nothing is fetched and no Go
# configuration outside it is read.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -trimpath -o "$out/bench" .)
exec "$out/bench" "$@"
