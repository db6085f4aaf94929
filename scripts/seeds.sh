#!/usr/bin/env bash
# Prints, as Markdown tables ready for EXPERIMENTS.md, the two seed tables
# a change to the adaptive tree is judged on:
#
#   1. the quick Figure 8 Euno-B+Tree cells at θ = 0.2, 0.9 and 0.99 on
#      seeds 1–9 (`eunobench -quick -csv -seed N fig8`, virtual M ops/s);
#   2. sim-contended throughput_ops_s, op_p50_us, put_p50_us,
#      htm.aborts_per_op and htm.fallbacks_per_kop on the seeds in SIM_SEEDS
#      (default "1 2 3"), all five from the one JSON line of one
#      `bench/run.sh --trace -1` run per seed.
#
# Each table has a column for the working tree and, when a base commit is
# given, one for that commit, exported with `git archive` into a temporary
# directory that is removed on exit. Both tables are virtual time, so one
# run per seed is the whole measurement.
#
#   scripts/seeds.sh                                  # working tree only
#   scripts/seeds.sh b723675                          # base beside it
#   SIM_SEEDS="9001 9002" make seeds BASE=b723675
#
# About 4 min per side for table 1 and 5 s per seed for table 2, after
# bench/run.sh's first build in each checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
base="${1:-}"
fig8_seeds="1 2 3 4 5 6 7 8 9"
sim_seeds="${SIM_SEEDS:-1 2 3}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# measure SIDE DIR writes fig8-SIDE ("seed θ0.2 θ0.9 θ0.99" per line) and
# sim-SIDE ("seed throughput op_p50 put_p50 aborts/op fallbacks/kop" per
# line) for the checkout at DIR.
measure() {
	local side=$1 dir=$2 s line
	go build -C "$dir" -o "$tmp/eunobench-$side" ./cmd/eunobench
	for s in $fig8_seeds; do
		"$tmp/eunobench-$side" -quick -csv -seed "$s" fig8 |
			awk -F, -v s="$s" '$1 == "0.20" { c = $2 } $1 == "0.90" { a = $2 } $1 == "0.99" { b = $2 }
				END { sub(/M$/, "", c); sub(/M$/, "", a); sub(/M$/, "", b); print s, c, a, b }'
	done > "$tmp/fig8-$side"
	for s in $sim_seeds; do
		line="$(bash "$dir/bench/run.sh" --workload sim-contended --seed "$s" --trace -1 | tail -n 1)"
		case "$line" in
		*'"correct":true,'*'"failed":0,'*) ;;
		*) echo "seeds: sim-contended seed $s in $dir did not run clean: $line" >&2; exit 1 ;;
		esac
		# encoding/json writes the metrics map with its keys sorted.
		echo "$s $(echo "$line" | sed -E 's/.*"htm\.aborts_per_op":\{"value":([^,]*),.*"htm\.fallbacks_per_kop":\{"value":([^,]*),.*"op_p50_us":\{"value":([^,]*),.*"put_p50_us":\{"value":([^,]*),.*"throughput_ops_s":\{"value":([^,]*),.*/\5 \3 \4 \1 \2/')"
	done > "$tmp/sim-$side"
}

measure tree "$root"
if [ -n "$base" ]; then
	mkdir "$tmp/base"
	git -C "$root" archive "$base" | tar -x -C "$tmp/base"
	measure base "$tmp/base"
else
	# No base: both columns of a row are the working tree's and only the
	# working tree's are printed.
	cp "$tmp/fig8-tree" "$tmp/fig8-base"
	cp "$tmp/sim-tree" "$tmp/sim-base"
fi

# Each row pastes the base's fields before the working tree's.
pct='function pct(new, old) { return sprintf("%+.1f %%", 100 * (new - old) / old) }'

echo "Quick Figure 8, Euno-B+Tree (eunobench -quick -seed N fig8, virtual M ops/s):"
echo
if [ -n "$base" ]; then
	echo "| seed | θ=0.2 $base | θ=0.2 working tree | θ=0.9 $base | θ=0.9 working tree | θ=0.99 $base | θ=0.99 working tree |"
	echo "|---|---|---|---|---|---|---|"
else
	echo "| seed | θ=0.2 | θ=0.9 | θ=0.99 |"
	echo "|---|---|---|---|"
fi
paste -d' ' "$tmp/fig8-base" "$tmp/fig8-tree" | awk -v based="$base" "$pct"'
	{ n++; bc += $2; ba += $3; bb += $4; tc += $6; ta += $7; tb += $8
	  if (based != "") printf "| %s | %.2f | %.2f (%s) | %.2f | %.2f (%s) | %.2f | %.2f (%s) |\n", $1, $2, $6, pct($6, $2), $3, $7, pct($7, $3), $4, $8, pct($8, $4)
	  else printf "| %s | %.2f | %.2f | %.2f |\n", $1, $6, $7, $8 }
	END { if (based != "") printf "| **mean** | **%.2f** | **%.2f (%s)** | **%.2f** | **%.2f (%s)** | **%.2f** | **%.2f (%s)** |\n", bc / n, tc / n, pct(tc, bc), ba / n, ta / n, pct(ta, ba), bb / n, tb / n, pct(tb, bb)
	      else printf "| **mean** | **%.2f** | **%.2f** | **%.2f** |\n", tc / n, ta / n, tb / n }'

echo
echo "sim-contended (bash bench/run.sh --workload sim-contended --seed N --trace -1${base:+; $base → working tree}):"
echo
echo "| seed | throughput_ops_s | op_p50_us | put_p50_us | htm.aborts_per_op | htm.fallbacks_per_kop |"
echo "|---|---|---|---|---|---|"
paste -d' ' "$tmp/sim-base" "$tmp/sim-tree" | awk -v based="$base" "$pct"'
	{ if (based != "") printf "| %s | %.0f → %.0f (%s) | %.5f → %.5f | %.5f → %.5f | %.4f → %.4f | %.2f → %.2f |\n", $1, $2, $8, pct($8, $2), $3, $9, $4, $10, $5, $11, $6, $12
	  else printf "| %s | %.0f | %.5f | %.5f | %.4f | %.2f |\n", $1, $8, $9, $10, $11, $12 }'
