#!/usr/bin/env bash
# run.sh — build the deployment and the benchmark from source, then run it.
#
# Usage, from the repository root:
#
#   bash e2ebench/run.sh --workload swarm --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, binaries, per-run daemon state)
# stays under .bench_build/ in the repository root. The last line of
# standard output is the JSON result; progress and diagnostics go to
# standard error.
set -euo pipefail

ROOT=$(pwd)
if [ ! -f "$ROOT/go.mod" ] || [ ! -d "$ROOT/cmd/mcgate" ] || [ ! -f "$ROOT/e2ebench/go.mod" ]; then
  echo "run.sh: run from the repository root (need go.mod, cmd/ and e2ebench/)" >&2
  exit 2
fi

OUT="$ROOT/.bench_build"
BIN="$OUT/bin"
mkdir -p "$BIN" "$OUT/tmp" "$OUT/state"
# Keep the toolchain's caches and config inside the checkout too.
export GOCACHE="$OUT/gocache" GOPATH="$OUT/gopath" XDG_CONFIG_HOME="$OUT/config"
export GOTMPDIR="$OUT/tmp" TMPDIR="$OUT/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$BIN/" ./cmd/mcgate ./cmd/mcqueue ./cmd/mcworker
(cd "$ROOT/e2ebench" && go build -o "$BIN/e2ebench" .)

exec "$BIN/e2ebench" --bin "$BIN" --state "$OUT/state" "$@"
