#!/bin/sh
# Bit-identical-figures guard: virtual time is deterministic, so a change
# that does not mean to alter the paper-faithful default path (the fragile
# retry policy, the trees, the emulator's cost model) must not move the
# default figures by a single virtual cycle. Regenerates the quick-scale
# Figure 1, 8 and 13 CSVs and the scan table and diffs them against the
# checked-in goldens. Any drift — an extra arena allocation, an extra
# tick, a stray RNG draw on the default path — shows up here as a CSV
# difference. Options.Resilience, observers and the host backend are all
# off in these runs: the guard proves they cost nothing when off.
#
# To re-baseline after an *intentional* metrics change:
#   go run ./cmd/eunobench -quick -csv fig1 > cmd/eunobench/testdata/golden-fig1-quick.csv
#   go run ./cmd/eunobench -quick -csv fig8 > cmd/eunobench/testdata/golden-fig8-quick.csv
set -eux

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/eunobench -quick -csv fig1 > "$tmp/fig1.csv"
diff -u cmd/eunobench/testdata/golden-fig1-quick.csv "$tmp/fig1.csv"

# Re-baselined once, on purpose, by the PR that made cold leaves dense
# (ISSUE 23): the Euno-B+Tree column moved (0.20/0.90/0.99: 28.45M/31.83M/
# 24.55M at the parent, 11e6347, to 31.40M/38.09M/23.11M); the other three
# columns did not move by a digit. EXPERIMENTS.md keeps both.
# Re-baselined once more, by the per-thread leaf hints (a get, put or
# delete whose thread found the key's leaf before skips the upper region):
# Euno-B+Tree 31.40M/38.09M/23.11M at the parent, 5d54e9e, to 31.57M/
# 38.99M/23.97M; the other three columns and fig1 did not move by a digit.
# Re-baselined once more, by the shared leaf directory checked by the
# fences every leaf carries (it replaced the per-thread hints and serves a
# scan's first page too): Euno-B+Tree 31.57M/38.99M/23.97M at the parent,
# fa2135f, to 34.51M/39.86M/28.84M; the other columns and fig1 unmoved.
go run ./cmd/eunobench -quick -csv fig8 > "$tmp/fig8.csv"
diff -u cmd/eunobench/testdata/golden-fig8-quick.csv "$tmp/fig8.csv"

# Figure 13 pins the ablation chain: the four configurations without
# Adaptive are the paper's leaf exactly, whatever the adaptive tree's leaves
# do. Recorded from a clone of the parent (11e6347) before ISSUE 23 changed
# a line; after it, only the two +Adaptive rows differ from that recording
# (31.83M -> 38.09M at theta 0.9, 28.45M -> 31.40M at 0.2), and they are
# what this file held until the leaf hints, which serve every Euno
# configuration, so all five Euno rows changed then, none down (theta 0.9:
# 37.53M/37.96M/28.80M/29.37M/38.09M at 5d54e9e to 40.41M/41.26M/30.30M/
# 30.03M/38.99M; theta 0.2: 33.12M/32.56M/27.60M/28.02M/31.40M to 33.13M/
# 32.58M/27.62M/28.02M/31.57M); the Baseline rows did not move. The leaf
# directory (parent fa2135f) moved the five Euno rows again, one down:
# theta 0.9 40.41M/41.26M/30.30M/30.03M/38.99M to 39.37M (+Split HTM,
# -2.6 %: more lower regions meet, 322 -> 555 fallbacks)/43.77M/30.86M/
# 30.67M/39.86M; theta 0.2 33.13M/32.58M/27.62M/28.02M/31.57M to 36.14M/
# 42.75M/30.89M/31.30M/34.51M. Re-baseline after an intentional change:
#   go run ./cmd/eunobench -quick -csv fig13 > cmd/eunobench/testdata/golden-fig13-quick.csv
go run ./cmd/eunobench -quick -csv fig13 > "$tmp/fig13.csv"
diff -u cmd/eunobench/testdata/golden-fig13-quick.csv "$tmp/fig13.csv"

# The scan path has no figure among the two above. Virtual time is
# deterministic, so it gets the same guard: the range-query extension's
# table must not move unless a PR means to move it. First baseline: the PR
# that replaced the per-leaf locked scan with the region walk (ISSUE 20),
# recorded after that change — there is no older golden to compare with.
# Re-baselined once since, by ISSUE 23 (dense cold leaves): the Euno column
# moved from 28.65M/25.87M/18.65M/8.83M (lengths 4/16/64/256) to
# 33.86M/32.13M/25.87M/14.90M; HTM-B+Tree and Masstree did not move. And
# once by the leaf hints (at 5d54e9e; they serve its gets and puts, a scan
# still descends): Euno to 34.28M/32.74M/26.55M/15.23M, the others unmoved.
# And once by the leaf directory (at fa2135f; a scan's first page uses it
# too): Euno to 37.98M/36.11M/28.76M/16.25M, the others unmoved.
# Re-baseline after an intentional change to the scan path:
#   go run ./cmd/eunobench -quick -csv scan > cmd/eunobench/testdata/golden-scan-quick.csv
go run ./cmd/eunobench -quick -csv scan > "$tmp/scan.csv"
diff -u cmd/eunobench/testdata/golden-scan-quick.csv "$tmp/scan.csv"

echo "golden figures: bit-identical"
