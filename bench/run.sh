#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given:
#
#   bash bench/run.sh --workload exec-timed --seed 1 --seconds 32 --trace 0
#   bash bench/run.sh                      # all four workloads, every metric
#   bash bench/run.sh --smoke
#   bash bench/run.sh compare BASE.json CANDIDATE.json
#
# Run it from the root of the checkout. Build cache, binary, trace files
# and scratch data all stay under bench/.build and bench/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$here/.build/gocache" GOPATH="$here/.build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$here/.build"
go build -C "$here" -o "$here/.build/bench" .
exec "$here/.build/bench" "$@"
