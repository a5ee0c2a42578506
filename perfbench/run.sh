#!/usr/bin/env bash
# Builds the binaries under test and the perfbench program from this
# checkout, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-oracle --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set): the Go build cache, temp files, the
# binaries, and the per-run result and trace files.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/rchserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ are required)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/run"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=

go build -o "$out/bin/" ./cmd/rchsweep ./cmd/rchexplore ./cmd/rchserve
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
