#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs, the Go build cache and span traces stay under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
  echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
  exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out="$root/$out"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -trace-dir "$out/trace" "$@"
