#!/usr/bin/env bash
# ab.sh — paired A/B runs of one benchmark workload on two source trees.
#
#   scripts/ab.sh PARENT_DIR CHANGE_DIR WORKLOAD N [SEED]
#
# Runs N pairs of `bash benchmark/run.sh --workload WORKLOAD --seed SEED`
# (seed 1 by default), each side from its own tree's root, and alternates
# which side goes first: pair 1 runs the parent first, pair 2 the change,
# and so on. The host's speed drifts over tens of seconds, so only runs
# taken close together and in alternation compare. Each run's output is
# kept in a fresh temporary directory, printed first.
#
# Then, per metric of the result line, it prints every pair's ratio
# (change / parent), how many pairs the change won (lower or higher is
# better as CHANGE_DIR/BENCHMARK.json says; metrics it does not list show
# "?"), and each side's median and interquartile range [Q1, Q3] (linear
# interpolation between order statistics). A failed or incorrect run is
# reported and its pair left out. Needs jq.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD N [SEED]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
n=$4
seed=${5:-1}
out=$(mktemp -d)
echo "ab: $workload seed $seed, $n pairs; runs in $out"

# run SIDE DIR PAIR: one benchmark run, its result line kept as
# "metric value" lines in $out/SIDE-PAIR.tsv, nothing kept when it failed.
run() {
	local log=$out/$1-$3.log
	if (cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed") >"$log" 2>&1 &&
		[ "$(tail -n 1 "$log" | jq -r .correct)" = true ]; then
		tail -n 1 "$log" | jq -r '.metrics | to_entries[] | "\(.key) \(.value.value)"' >"$out/$1-$3.tsv"
	else
		echo "ab: pair $3: the $1 run failed (see $log)" >&2
	fi
}

for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
	echo "ab: pair $i done" >&2
done

# Every complete pair as "pair side metric value", the directions as
# "dir metric better".
{
	jq -r '(.end_to_end + .per_layer)[] | "dir \(.name) \(.better)"' "$change/BENCHMARK.json"
	for i in $(seq 1 "$n"); do
		if [ -f "$out/parent-$i.tsv" ] && [ -f "$out/change-$i.tsv" ]; then
			sed "s/^/$i parent /" "$out/parent-$i.tsv"
			sed "s/^/$i change /" "$out/change-$i.tsv"
		fi
	done
} | awk '
function quantile(v, k, q,   pos, lo) {
	pos = 1 + (k - 1) * q
	lo = int(pos)
	return lo >= k ? v[k] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function sortv(v, k,   i, j, t) {
	for (i = 2; i <= k; i++) {
		t = v[i]
		for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
		v[j + 1] = t
	}
}
function stats(side, m,   v, k, p) {
	k = 0
	for (p = 1; p <= maxpair; p++)
		if ((p, side, m) in val) v[++k] = val[p, side, m]
	sortv(v, k)
	return sprintf("%.4g [%.4g, %.4g]", quantile(v, k, 0.5), quantile(v, k, 0.25), quantile(v, k, 0.75))
}
$1 == "dir" { better[$2] = $3; next }
{
	val[$1, $2, $3] = $4
	if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 }
	if ($1 + 0 > maxpair) maxpair = $1 + 0
}
END {
	for (i = 1; i <= nm; i++) {
		m = order[i]
		ratios = ""
		wins = 0
		pairs = 0
		for (p = 1; p <= maxpair; p++) {
			if (!((p, "parent", m) in val) || !((p, "change", m) in val)) continue
			a = val[p, "parent", m]
			b = val[p, "change", m]
			pairs++
			ratios = ratios sprintf(" %.3f", a != 0 ? b / a : 0)
			if ((better[m] == "lower" && b < a) || (better[m] == "higher" && b > a)) wins++
		}
		if (pairs == 0) continue
		w = (m in better) ? wins "/" pairs : "?/" pairs
		printf "%s\n  ratios:%s\n  change better: %s\n  parent %s\n  change %s\n", m, ratios, w, stats("parent", m), stats("change", m)
	}
}'
