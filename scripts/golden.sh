#!/bin/sh
# Bit-identical-figures guard: the resilience layer is opt-in, so the
# paper-faithful default figures must not move by a single virtual cycle.
# Regenerates the quick-scale Figure 1 and Figure 8 CSVs and diffs them
# against the checked-in goldens (captured before the resilience layer
# landed). Any drift — an extra arena allocation, an extra tick, a stray
# RNG draw on the default path — shows up here as a CSV difference.
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

go run ./cmd/eunobench -quick -csv fig8 > "$tmp/fig8.csv"
diff -u cmd/eunobench/testdata/golden-fig8-quick.csv "$tmp/fig8.csv"

# The scan path has no figure among the two above. Virtual time is
# deterministic, so it gets the same guard: the range-query extension's
# table must not move unless a PR means to move it. First baseline: the PR
# that replaced the per-leaf locked scan with the region walk (ISSUE 20),
# recorded after that change — there is no older golden to compare with.
# Re-baseline after an intentional change to the scan path:
#   go run ./cmd/eunobench -quick -csv scan > cmd/eunobench/testdata/golden-scan-quick.csv
go run ./cmd/eunobench -quick -csv scan > "$tmp/scan.csv"
diff -u cmd/eunobench/testdata/golden-scan-quick.csv "$tmp/scan.csv"

echo "golden figures: bit-identical"
