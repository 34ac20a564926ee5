#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it from the root of
# the checkout. Build cache, binary, temp dirs and span files all stay
# under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload read_mix --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
