#!/usr/bin/env bash
# Paired A/B runs of the repository benchmark: the working tree (the
# change) against a base commit (the parent), in alternating pairs.
#
#   scripts/benchpair.sh --workload explore-depth3 --pairs 10 --out BENCH_x.json
#
# Options (all but --workload have defaults):
#   --workload W   perfbench workload name (required)
#   --pairs N      number of parent/change pairs (default 10)
#   --seed S       workload seed, the same for every run (default 1)
#   --base REV     parent revision (default HEAD: the commit the working
#                  tree's change sits on; use HEAD~1 for a committed change)
#   --work DIR     build and run directory (default .bench_build/pair)
#   --out FILE     JSON summary to write (default DIR/benchpair.<W>.json)
#
# Every run lasts the benchmark's own run_seconds from BENCHMARK.json,
# the same on both sides.
# The parent is exported with `git archive`, so it holds exactly the
# committed files of REV; the change is this checkout as it stands.
# Pair i runs the parent first when i is even and the change first when
# i is odd, so slow drift of the host's speed hits both sides alike.
# perfbench/run.sh runs `go build` on every invocation; each side keeps
# its own Go cache under --work, so after the first pair those builds
# are cache hits.
#
# The summary holds, per side and for each end-to-end metric, the
# median, quartiles and every value; per metric, the number of pairs
# the change won (lower is better except for ops_per_s); and the seed,
# nproc and GOMAXPROCS the runs used.
set -euo pipefail

workload="" pairs=10 seed=1 base=HEAD work=.bench_build/pair out=""
while [[ $# -gt 0 ]]; do
	case $1 in
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seed) seed=$2 ;;
	--base) base=$2 ;;
	--work) work=$2 ;;
	--out) out=$2 ;;
	*)
		echo "benchpair: unknown argument $1 (see the header of $0)" >&2
		exit 2
		;;
	esac
	shift 2
done
if [[ -z $workload ]]; then
	echo "benchpair: --workload is required" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
root=$(pwd)
base_commit=$(git rev-parse "$base")
metrics=(ops_per_s cpu_us_per_op max_rss_mb setup_s)
seconds=$(sed -nE 's/.*"run_seconds": *([0-9.]+).*/\1/p' BENCHMARK.json)
if [[ -z $seconds ]]; then
	echo "benchpair: no run_seconds in BENCHMARK.json" >&2
	exit 2
fi

mkdir -p "$work"
work=$(cd "$work" && pwd)
out=${out:-$work/benchpair.$workload.json}
rm -rf "$work/parent-src"
mkdir -p "$work/parent-src" "$work/parent" "$work/change" "$work/logs"
git archive "$base_commit" | tar -x -C "$work/parent-src"

# runside SIDE I: one perfbench run of SIDE; its final JSON line is
# kept as $work/logs/SIDE.I.json.
runside() {
	local side=$1 i=$2 src=$root
	[[ $side == parent ]] && src=$work/parent-src
	(cd "$src" && CARGO_TARGET_DIR="$work/$side" bash perfbench/run.sh \
		--workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
		>"$work/logs/$side.$i.log" 2>&1 || {
		echo "benchpair: $side run $i failed; see $work/logs/$side.$i.log" >&2
		exit 1
	}
	tail -n 1 "$work/logs/$side.$i.log" >"$work/logs/$side.$i.json"
	grep -q '"correct":true' "$work/logs/$side.$i.json" || {
		echo "benchpair: $side run $i is not correct; see $work/logs/$side.$i.log" >&2
		exit 1
	}
}

# value SIDE I METRIC prints one metric of one run.
value() {
	sed -E "s/.*\"$3\":\{\"value\":([^,}]+).*/\1/" "$work/logs/$1.$2.json"
}

for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
	for side in "${order[@]}"; do runside "$side" "$i"; done
	echo "benchpair: pair $((i + 1))/$pairs cpu_us_per_op parent=$(value parent "$i" cpu_us_per_op) change=$(value change "$i" cpu_us_per_op)" >&2
done

# stats prints median, q1 and q3 (linear interpolation) of the numbers
# on stdin.
stats() {
	sort -g | awk '{ v[NR] = $1 }
	function q(p,  h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + (l < NR)] - v[l]) }
	END { printf "\"median\": %g, \"q1\": %g, \"q3\": %g", q(0.5), q(0.25), q(0.75) }'
}

side_json() {
	local side=$1 sep="" m i vals
	printf '{'
	for m in "${metrics[@]}"; do
		vals=$(for ((i = 0; i < pairs; i++)); do value "$side" "$i" "$m"; done)
		printf '%s\n    "%s": {%s, "values": [%s]}' "$sep" "$m" "$(stats <<<"$vals")" "$(paste -sd, <<<"$vals" | sed 's/,/, /g')"
		sep=,
	done
	printf '\n  }'
}

wins_json() {
	local sep="" m i w p c
	printf '{'
	for m in "${metrics[@]}"; do
		w=0
		for ((i = 0; i < pairs; i++)); do
			p=$(value parent "$i" "$m") c=$(value change "$i" "$m")
			if [[ $m == ops_per_s ]]; then
				awk -v p="$p" -v c="$c" 'BEGIN { exit !(c > p) }' && w=$((w + 1))
			else
				awk -v p="$p" -v c="$c" 'BEGIN { exit !(c < p) }' && w=$((w + 1))
			fi
		done
		printf '%s"%s": %d' "$sep" "$m" "$w"
		sep=", "
	done
	printf '}'
}

cat >"$out" <<EOF
{
  "workload": "$workload",
  "pairs": $pairs,
  "seed": $seed,
  "seconds": $seconds,
  "base": "$base_commit",
  "nproc": $(nproc),
  "gomaxprocs": ${GOMAXPROCS:-$(nproc)},
  "order": "pair i runs the parent first when i is even, the change first when i is odd",
  "parent": $(side_json parent),
  "change": $(side_json change),
  "change_wins": $(wins_json)
}
EOF
echo "benchpair: wrote $out" >&2
