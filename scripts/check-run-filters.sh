#!/bin/sh
# Every go-test line with a quoted -run regexp in the CI workflow, the
# Makefile and the other scripts must still select at least one test: a
# filter that matches nothing passes silently, so a lane whose tests were
# renamed or deleted would go on reporting green while running nothing.
# For each such line this asks `go test -list` what the filter selects in
# those packages and fails if the answer is empty.
#
# Only the single-quoted form is checked (it is the only one in use; the
# deliberate match-nothing spellings -run=NONE and -run '^$' have no
# packages' tests to lose). -list sees top-level tests only, so a filter
# with subtest elements is checked by its first element.
set -eu

cd "$(dirname "$0")/.."
status=0
self="scripts/$(basename "$0")"
grep -hE "go test .*-run '[^']+'" .github/workflows/ci.yml Makefile $(ls scripts/*.sh | grep -vxF "$self") |
	sed -E "s/.*-run '([^']+)'[[:space:]]+(.*)/\1\t\2/" |
	sort -u |
	{
		while IFS="$(printf '\t')" read -r re rest; do
			[ "$re" = '^$' ] && continue
			pkgs=""
			for word in $rest; do
				case "$word" in
				.*) pkgs="$pkgs $word" ;;
				*) break ;;
				esac
			done
			if [ -z "$pkgs" ]; then
				echo "check-run-filters: no packages after -run '$re'" >&2
				status=1
				continue
			fi
			# shellcheck disable=SC2086 # pkgs is a word list
			if ! go test -list "${re%%/*}" $pkgs | grep -qE '^(Test|Benchmark|Example|Fuzz)'; then
				echo "check-run-filters: -run '$re' matches no test in$pkgs" >&2
				status=1
			fi
		done
		exit $status
	}
echo "run filters: every -run regexp selects a test"
