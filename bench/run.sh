#!/usr/bin/env bash
# Builds varbench and varpowerd from this checkout, then runs varbench with
# the given arguments. Build time is never measured: varbench times only the
# daemons it starts and the calls it makes. Everything the build and the runs
# leave behind goes under .bench_build/ at the checkout root.
#
#   bash bench/run.sh -workload hot-direct -seed 1 -seconds 10 -trace 0
#   bash bench/run.sh -runset 5 -seed 1 -out bench/baseline/seed-1.json
#   bash bench/run.sh -compare bench/baseline/seed-1.json other.json
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local
# The go command keeps its env file and telemetry counters under the user
# config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$out/config"

go build -C "$root/bench" -o "$out/bin/varbench" ./varbench
go build -C "$root" -o "$out/bin/varpowerd" ./cmd/varpowerd
exec "$out/bin/varbench" -root "$root" -varpowerd "$out/bin/varpowerd" "$@"
