#!/usr/bin/env bash
# Interleaved A/B of the repo's benchmark: the committed tree at
# <parent-ref> against the working tree, one workload, seeds 1..pairs,
# alternating which side runs first. Prints, per end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, the pairs the change
# won (ties count for neither), the change in the median (med.delta) and
# the house-rule verdict (claim): "yes" when the change won at least nine
# in ten of the pairs and its median beats the parent's by more than the
# parent's q3 - q1, both in the metric's better direction — the protocol
# a perf PR's claim and its docs/TRAJECTORY.md row rest on.
#
#   scripts/ab.sh <parent-ref|-> <workload> [pairs=10]
#
# Both sides are exported into sibling directories under .bench_build/
# (git-ignored, rebuilt on every call) and build and run from there, the
# same way: the parent with `git archive <parent-ref>` into ab-parent, the
# change as a snapshot of the working tree (every file `git add -A` would
# stage, through a throwaway index, so the real index is untouched) with
# `git checkout-index` into ab-change. Editing the checkout while the A/B
# runs therefore changes neither side. A parent-ref of `-` is the null
# A/B (`make ab-null`): the working-tree snapshot is copied to both
# directories, so any difference the table shows is the harness's own.
# A run that is not "correct" with 0 failed ops aborts the comparison.
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-ref|-> <workload> [pairs=10]" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
parent="$root/.bench_build/ab-parent"
change="$root/.bench_build/ab-change"
rm -rf "$parent" "$change"
mkdir -p "$parent" "$change"
rows=$(mktemp)
index=$(mktemp -u)
trap 'rm -f "$rows" "$index"' EXIT
GIT_INDEX_FILE=$index git -C "$root" add -A
GIT_INDEX_FILE=$index git -C "$root" checkout-index -a --prefix="$change/"
if [ "$ref" = - ]; then
	cp -R "$change/." "$parent"
else
	git -C "$root" archive "$ref" | tar -x -C "$parent"
fi

# run <side> <dir> <seed>: one untraced run; appends "<metric> <side>
# <seed> <value>" rows to $rows.
run() {
	local side=$1 dir=$2 seed=$3 line
	line=$(bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$seed" --trace 0 | tail -n 1)
	case $line in
	'{"correct":true,'*'"failed":0,'*) ;;
	*)
		echo "ab: $side run (seed $seed) failed: $line" >&2
		exit 1
		;;
	esac
	echo "$line" | grep -o '"[a-z0-9_]*":{"value":[^,]*' |
		sed -E "s/\"([a-z0-9_]*)\":\{\"value\":(.*)/\1 $side $seed \2/" >>"$rows"
	echo "ab: seed $seed $side done" >&2
}
for seed in $(seq 1 "$pairs"); do
	if [ $((seed % 2)) -eq 1 ]; then
		run parent "$parent" "$seed"
		run change "$change" "$seed"
	else
		run change "$change" "$seed"
		run parent "$parent" "$seed"
	fi
done

if [ "$ref" = - ]; then
	label="null A/B (working tree on both sides)"
else
	label="parent $(git -C "$root" rev-parse --short "$ref")"
fi
echo "workload $workload, $label, $pairs interleaved pairs (seeds 1..$pairs)"
printf '%-16s %-6s %12s %12s %12s   %12s %12s %12s   %-9s %9s  %s\n' metric better \
	parent.q1 parent.med parent.q3 change.q1 change.med change.q3 'pairs won' med.delta claim
# Metric names and directions come from the benchmark's own declaration.
grep '"bound"' "$root/BENCHMARK.json" |
	sed -E 's/.*"name": "([^"]*)".*"better": "([^"]*)".*/\1 \2/' |
	while read -r metric better; do
		quart() { # quartiles of one side by linear interpolation
			awk -v m="$metric" -v s="$1" '$1 == m && $2 == s { print $4 }' "$rows" | sort -g |
				awk '{ v[NR] = $1 } END {
					for (i = 1; i <= 3; i++) {
						p = (NR - 1) * i / 4 + 1; lo = int(p); hi = lo < NR ? lo + 1 : lo
						printf "%12.4f ", v[lo] + (v[hi] - v[lo]) * (p - lo)
					}
				}'
		}
		won=$(awk -v m="$metric" -v b="$better" '
			$1 == m && $2 == "parent" { p[$3] = $4 }
			$1 == m && $2 == "change" { c[$3] = $4 }
			END {
				for (s in p) if (b == "lower" ? c[s] < p[s] : c[s] > p[s]) n++
				printf "%d", n
			}' "$rows")
		pq=$(quart parent) cq=$(quart change)
		verdict=$(echo "$pq $cq" | awk -v b="$better" -v won="$won" -v n="$pairs" '{
			gain = b == "lower" ? $2 - $5 : $5 - $2
			delta = $2 == 0 ? "n/a" : sprintf("%+.1f%%", ($5 - $2) / $2 * 100)
			printf "%9s  %s", delta, (10 * won >= 9 * n && gain > $3 - $1) ? "yes" : "no"
		}')
		printf '%-16s %-6s %s  %s  %-9s %s\n' "$metric" "$better" "$pq" "$cq" "$won/$pairs" "$verdict"
	done
