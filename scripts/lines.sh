#!/usr/bin/env bash
# Go line counts, non-test and test, per top-level directory and in
# total, for the tree this script sits in — the two numbers every
# simplicity PR and every ROADMAP re-anchor quotes — then the number of
# non-test files that still name the adjacency-map *graph.Graph (the
# progress of moving everything past the generators onto the CSR), and
# last the exported top-level funcs of non-test files that no non-test
# Go names but their own declaration (comments do not count; benchmark/
# does, since it compiles against them): each must be on the kept table
# of docs/ARCHITECTURE.md's reachability audit.
# benchmark/ is a module of its own, frozen between benchmark PRs, and
# is left out. Lines are raw `wc -l` lines: comments and blanks count.
#
#   scripts/lines.sh    (or: make lines)
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		n = split($2, part, "/")
		dir = n > 2 ? part[2] : "(root)"
		if ($2 ~ /_test\.go$/) { test[dir] += $1; tests += $1 } else { code[dir] += $1; codes += $1 }
		seen[dir] = 1
	}
	END {
		printf "%-12s %9s %9s\n", "directory", "non-test", "test"
		for (dir in seen) printf "%-12s %9d %9d\n", dir, code[dir], test[dir] | "sort"
		close("sort")
		printf "%-12s %9d %9d\n", "total", codes, tests
	}'
{ grep -rlE 'graph\.Graph\b|\*Graph\b' --include='*.go' --exclude='*_test.go' \
	--exclude-dir=benchmark --exclude-dir=.bench_build . || true; } |
	awk 'END { printf "%-12s %9d  non-test files naming *graph.Graph\n", "map graph", NR }'
nontest() {
	find . -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*' "$@" -print0
}
awk -F: 'NR == FNR { uses[$1]++; next } uses[$2] <= 1 { printf "%-12s %s %s\n", "unnamed", $1, $2 }' \
	<(nontest | xargs -0 sed 's#//.*##' | grep -owE '[A-Za-z_][A-Za-z0-9_]*') \
	<(nontest -not -path './benchmark/*' | xargs -0 grep -HoE '^func [A-Z][A-Za-z0-9_]*' | sed 's/^\.\///; s/:func /:/' | sort)
