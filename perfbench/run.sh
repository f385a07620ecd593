#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload batch-clean --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary, and the go command's own config and
# telemetry files live in .bench_build/ at the checkout root, so nothing
# is written outside the checkout. The build needs the repository's own
# sources beside perfbench/; without them it fails and the script exits
# non-zero before any result is printed.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
