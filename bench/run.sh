#!/usr/bin/env bash
# Builds the system under test (cmd/sketchd, cmd/sketchgw) and the
# benchmark from this checkout into .bench_build/, then runs the
# benchmark from the repository root with the given arguments:
#
#   bash bench/run.sh -workload cluster-dup -seed 1 -seconds 24 -trace 0
#
# The Go build cache, temporary files and the go command's own config
# live under .bench_build/ too, so a run writes nothing outside the
# checkout. Go telemetry is switched off there: otherwise the first go
# command in a fresh config directory starts a detached upload process
# that outlives the run.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" XDG_CONFIG_HOME="$PWD/$out/config" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/bin/" ./cmd/sketchd ./cmd/sketchgw
(cd bench && go build -o "../$out/bin/bench" .)
exec "$out/bin/bench" "$@"
