#!/bin/sh
# scripts/bench.sh [-quick] [-out FILE] [-seeds N] [-workers LIST]
#
# Measures the sweep engine's worker scaling curve and writes the bench
# artifact (default BENCH_sweep.json at the repo root): seeds/sec at
# each worker count in the curve (default 1,2,4,8 plus GOMAXPROCS, with
# a forced workers=1 baseline and duplicates collapsed), the speedup
# against the baseline, and per-seed p50/p95 wall times for the oracle
# and guarded-chaos sweeps plus the boot (device spin-up) mode.
# GOMAXPROCS is recorded on every measurement, so points collected on
# differently-provisioned machines stay honest. Every point doubles as
# a determinism check — the merged report AND the canonical metrics
# dump are byte-compared against the workers=1 baseline, and the bench
# fails on any drift.
#
# Every per-seed world is forked from one settled pre-chaos template.
# Boot runs a larger seed count (mode:seeds syntax) because each of its
# seeds is microseconds. For the construction cost alone (fresh build
# vs template fork), run
#   go test -run '^$' -bench 'FreshBuild|TemplateFork' ./internal/device
#
#
# After the sweep curve, the replay bench (cmd/rchreplay) generates a
# seeded diurnal trace and replays it through fresh embedded fleets at
# each speed multiplier, writing BENCH_replay.json: per-op-class
# p50/p95/p99 wall latencies (boot, config flip, batched burst), shed
# rate by wire code, and breaker/guard counters per speed.
#
#   scripts/bench.sh            # full measurement (512 seeds per mode)
#   scripts/bench.sh -quick     # CI-sized (128 seeds per mode)
#   scripts/bench.sh -workers 1,4,16
set -eu
cd "$(dirname "$0")/.."

seeds=512
bootseeds=20000
out=BENCH_sweep.json
replayout=BENCH_replay.json
workers=1,2,4,8,0
replayspan=20000
replayspeeds=10,100,1000
while [ $# -gt 0 ]; do
    case "$1" in
        -quick) seeds=128; bootseeds=5000; replayspan=4000; replayspeeds=100,1000 ;;
        -out) shift; out="$1" ;;
        -replay-out) shift; replayout="$1" ;;
        -seeds) shift; seeds="$1" ;;
        -workers) shift; workers="$1" ;;
        *) echo "bench.sh: unknown flag $1" >&2; exit 2 ;;
    esac
    shift
done

go run ./cmd/rchsweep -bench -mode="oracle,guard,boot:$bootseeds" \
    -seeds="$seeds" -bench-workers="$workers" -bench-out "$out"

echo "bench.sh: replay bench (span ${replayspan}ms at ${replayspeeds}x)" >&2
go run ./cmd/rchreplay -gen artifacts/bench.trace.log -seed 17 -devices 12 \
    -span-ms "$replayspan" -events-per-device 30
go run ./cmd/rchreplay -log artifacts/bench.trace.log -shards 4 \
    -speeds "$replayspeeds" -bench-out "$replayout"
