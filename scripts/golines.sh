#!/usr/bin/env bash
# golines.sh prints the Go lines added, deleted and net between a base
# commit and the working tree, split into non-test and _test.go files.
#
# Usage: scripts/golines.sh [BASE]
#
# BASE defaults to the merge base of HEAD and origin/main. Staged and
# tracked files count; untracked files do not.
set -euo pipefail
base="${1:-$(git merge-base HEAD origin/main)}"
git diff --numstat --no-renames "$base" -- '*.go' | awk -v base="$(git rev-parse --short "$base")" '
	$1 == "-" { next }
	{ k = ($3 ~ /_test\.go$/) ? "test" : "non-test"; add[k] += $1; del[k] += $2 }
	END {
		printf "Go lines against %s:\n", base
		split("non-test test", kinds, " ")
		for (i = 1; i <= 2; i++) {
			k = kinds[i]
			printf "  %-9s +%d -%d net %+d\n", k ":", add[k], del[k], add[k] - del[k]
		}
	}'
