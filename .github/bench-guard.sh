#!/usr/bin/env bash
# Paired benchmark guard: times perfbench's bounded workloads on the tree at
# BASE and on this checkout, on the same machine, and fails when the
# checkout is slower.
#
#   bash .github/bench-guard.sh BASE      # BASE: any commit, e.g. origin/main
#
# BASE is exported with git archive into a temporary directory. For each of
# hammer and lease, PAIRS pairs of short runs alternate which tree runs
# first. The guard fails when the checkout's median replicates_per_ref_s is
# below MIN_RATIO times the base's on either workload, or when any checkout
# run reports correct: false or failed operations. Every run's full output
# goes to bench-guard.log at the root of the checkout.
set -euo pipefail

readonly WORKLOADS="hammer lease" PAIRS=3 RUN_SECONDS=10 SEED=1 MIN_RATIO=0.8

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
head=$(cd "$(dirname "$0")/.." && pwd)
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git -C "$head" archive "$1" | tar -x -C "$base"
log=$head/bench-guard.log
: >"$log"
echo "bench-guard: base $(git -C "$head" rev-parse --short "$1"), head $head, log $log"

# median of an odd count of numbers
median() { printf '%s\n' "$@" | sort -g | sed -n "$((($# + 1) / 2))p"; }

status=0
for w in $WORKLOADS; do
	base_rates=() head_rates=()
	for pair in $(seq 1 "$PAIRS"); do
		order="base head"
		if [ $((pair % 2)) -eq 0 ]; then order="head base"; fi
		for side in $order; do
			tree=$head
			if [ "$side" = base ]; then tree=$base; fi
			echo "== $w pair $pair $side" >>"$log"
			if ! out=$(cd "$tree" && bash perfbench/run.sh --workload "$w" --seed "$SEED" \
				--seconds "$RUN_SECONDS" --trace 0 2>>"$log"); then
				echo "$out" >>"$log"
				echo "bench-guard: $w pair $pair: the $side run failed; see $log" >&2
				exit 1
			fi
			echo "$out" >>"$log"
			result=$(tail -n 1 <<<"$out")
			rate=$(jq -r '.metrics.replicates_per_ref_s.value' <<<"$result")
			correct=$(jq -r '.correct' <<<"$result")
			failed=$(jq -r '.failed' <<<"$result")
			if ! [[ $rate =~ ^[0-9.eE+-]+$ ]]; then
				echo "bench-guard: $w pair $pair: the $side run reported no replicates_per_ref_s; see $log" >&2
				exit 1
			fi
			printf '%-6s pair %d %-4s replicates_per_ref_s %8.3f  correct %-5s failed %s\n' \
				"$w" "$pair" "$side" "$rate" "$correct" "$failed"
			if [ "$side" = base ]; then
				base_rates+=("$rate")
			else
				head_rates+=("$rate")
				if [ "$correct" != true ] || [ "$failed" != 0 ]; then
					echo "FAIL: $w: a head run reports correct $correct, failed $failed"
					status=1
				fi
			fi
		done
	done
	bm=$(median "${base_rates[@]}")
	hm=$(median "${head_rates[@]}")
	ratio=$(awk -v h="$hm" -v b="$bm" 'BEGIN {printf "%.3f", h / b}')
	printf '%-6s median base %8.3f  head %8.3f  ratio %s (min %s)\n' "$w" "$bm" "$hm" "$ratio" "$MIN_RATIO"
	if awk -v h="$hm" -v b="$bm" -v m="$MIN_RATIO" 'BEGIN {exit !(h < m * b)}'; then
		echo "FAIL: $w: head runs at $ratio of base, below $MIN_RATIO"
		status=1
	fi
done
exit "$status"
