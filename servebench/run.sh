#!/usr/bin/env bash
# Builds cmd/serve and the benchmark client from this checkout, then runs
# the client from the checkout root with the given flags, e.g.
#
#   bash servebench/run.sh --workload plan-hit --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run files all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
cd "$root"
go build -o "$out/serve" ./cmd/serve
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -root "$root" -serve "$out/serve" "$@"
