#!/bin/sh
# Bit-identical-figures guard: virtual time is deterministic, so a change
# that does not mean to alter the paper-faithful figure path (the
# harness's fragile retry policy, the trees, the emulator's cost model)
# must not move the default figures by a single virtual cycle. Regenerates
# the quick-scale Figure 1, 8 and 13 CSVs and the scan table and diffs
# them against the checked-in goldens. Any drift — an extra arena
# allocation, an extra tick, a stray RNG draw on the default path — shows
# up here as a CSV difference. These runs build their device through the
# experiment harness on its fragile default (no lemming wait), with no
# observer and on the emulated backend: the guard proves the observers and
# the host backend cost nothing when off.
#
# Figure 13 pins the ablation chain: its Baseline rows are the monolithic
# tree and must not move when only Euno-B+Tree's leaves change. The scan
# table is the one figure that sees the scan path.
#
# Figures 8 and 13 run a second time with -resilience, against their own
# goldens: that pins the hardened path, the device's lemming wait
# (htm.Config.LemmingWait) reaching every tree the figures build — the
# device every eunomia.Open builds.
#
# To re-baseline after an *intentional* metrics change — EXPERIMENTS.md
# keeps every re-baseline's parent and change columns, so label it there:
#   go build ./cmd/eunobench
#   for f in fig1 fig8 fig13 scan; do
#     ./eunobench -quick -csv $f > cmd/eunobench/testdata/golden-$f-quick.csv
#   done
#   for f in fig8 fig13; do
#     ./eunobench -quick -csv -resilience $f > cmd/eunobench/testdata/golden-$f-resilient-quick.csv
#   done
set -eux

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/eunobench" ./cmd/eunobench
for f in fig1 fig8 fig13 scan; do
	"$tmp/eunobench" -quick -csv "$f" > "$tmp/$f.csv"
	diff -u "cmd/eunobench/testdata/golden-$f-quick.csv" "$tmp/$f.csv"
done
for f in fig8 fig13; do
	"$tmp/eunobench" -quick -csv -resilience "$f" > "$tmp/$f-resilient.csv"
	diff -u "cmd/eunobench/testdata/golden-$f-resilient-quick.csv" "$tmp/$f-resilient.csv"
done

echo "golden figures: bit-identical"
