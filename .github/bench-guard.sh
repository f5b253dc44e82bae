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
# below MIN_RATIO times the base's on either workload, when its median
# max_rss_mb is above the base's by more than that metric's bound in
# BENCHMARK.json, or when any checkout run reports correct: false or failed
# operations. It prints the setup_s medians and their ratio without judging
# them: setup_s is wall clock, which swings about 1.6x with the host's mode
# (perfbench/README.md). Every run's full output goes to bench-guard.log at
# the root of the checkout.
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
rss_bound=$(jq -r '.end_to_end[] | select(.name == "max_rss_mb") | .bound' "$head/BENCHMARK.json")
if ! [[ $rss_bound =~ ^[0-9.]+$ ]]; then
	echo "bench-guard: BENCHMARK.json gives max_rss_mb no bound" >&2
	exit 1
fi

# median of an odd count of numbers
median() { printf '%s\n' "$@" | sort -g | sed -n "$((($# + 1) / 2))p"; }

status=0
for w in $WORKLOADS; do
	base_rates=() head_rates=() base_rss=() head_rss=() base_setup=() head_setup=()
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
			rss=$(jq -r '.metrics.max_rss_mb.value' <<<"$result")
			setup=$(jq -r '.metrics.setup_s.value' <<<"$result")
			correct=$(jq -r '.correct' <<<"$result")
			failed=$(jq -r '.failed' <<<"$result")
			for v in "$rate" "$rss" "$setup"; do
				if ! [[ $v =~ ^[0-9.eE+-]+$ ]]; then
					echo "bench-guard: $w pair $pair: the $side run reported no replicates_per_ref_s, max_rss_mb or setup_s; see $log" >&2
					exit 1
				fi
			done
			printf '%-6s pair %d %-4s replicates_per_ref_s %8.3f  max_rss_mb %7.2f  setup_s %.4f  correct %-5s failed %s\n' \
				"$w" "$pair" "$side" "$rate" "$rss" "$setup" "$correct" "$failed"
			if [ "$side" = base ]; then
				base_rates+=("$rate") base_rss+=("$rss") base_setup+=("$setup")
			else
				head_rates+=("$rate") head_rss+=("$rss") head_setup+=("$setup")
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
	bm=$(median "${base_rss[@]}")
	hm=$(median "${head_rss[@]}")
	ratio=$(awk -v h="$hm" -v b="$bm" 'BEGIN {printf "%.3f", h / b}')
	printf '%-6s max_rss_mb median base %8.2f  head %8.2f  ratio %s (max %s)\n' "$w" "$bm" "$hm" "$ratio" "$(awk -v x="$rss_bound" 'BEGIN {print 1 + x}')"
	if awk -v h="$hm" -v b="$bm" -v x="$rss_bound" 'BEGIN {exit !(h > (1 + x) * b)}'; then
		echo "FAIL: $w: head uses $ratio of base's memory, more than the bound $rss_bound allows"
		status=1
	fi
	bm=$(median "${base_setup[@]}")
	hm=$(median "${head_setup[@]}")
	ratio=$(awk -v h="$hm" -v b="$bm" 'BEGIN {printf "%.3f", h / b}')
	printf '%-6s setup_s median base %.4f  head %.4f  ratio %s (reported, not judged)\n' "$w" "$bm" "$hm" "$ratio"
done
exit "$status"
