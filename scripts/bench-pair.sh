#!/bin/sh
# make bench-pair REF=<commit> WORKLOAD=<w> N=<n> — this checkout (its
# working tree, uncommitted changes included) against the commit REF on
# one benchmark workload:
#
#   sh scripts/bench-pair.sh REF WORKLOAD N [bench/run.sh arguments]
#
# REF's tree is exported into a temporary directory (git archive: no
# worktree is registered, so an interrupted run leaves nothing in .git).
# Each tree builds and runs its own benchmark with its own bench/run.sh
# (--trace 0 and the arguments given, BENCH_ARGS under make), N
# alternating pairs: REF first in odd pairs, this checkout first in even
# ones. Every run must be correct (bench/run.sh checks the digest against
# bench/golden.json at the default seed and length) with 0 failed ops,
# and both trees must print one corpus_digest. Then, per end-to-end
# metric, the median of each tree, their ratio (this checkout / REF) and
# wins/N: the pairs in which this checkout read lower (every end-to-end
# metric in BENCHMARK.json is lower-is-better); then every run's value,
# pair by pair. The directory is removed on exit.
set -eu
[ $# -ge 3 ] || { echo "usage: $0 REF WORKLOAD N [bench/run.sh arguments]" >&2; exit 2; }
ref=$1 workload=$2 n=$3
shift 3
cd "$(dirname "$0")/.."
here=$(pwd)
commit=$(git rev-parse --verify "$ref^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref" "$tmp/out"
git archive "$commit" | tar -x -C "$tmp/ref"
echo "bench-pair: $workload, $n pairs, REF $commit (in $tmp/ref) against $here" >&2

# run TREE NAME I ARGS...: one run of TREE's benchmark; its stdout is
# kept as out/NAME.I and must show a correct run with no failed op.
run() {
	tree=$1 log="$tmp/out/$2.$3" what="$2 run $3"
	shift 3
	if ! (cd "$tree" && bash bench/run.sh --workload "$workload" --trace 0 "$@" >"$log" 2>"$log.err"); then
		echo "bench-pair: $what failed:" >&2
		cat "$log" "$log.err" >&2
		exit 1
	fi
	tail -n 1 "$log" | grep -q '"correct": *true, *"attempted": *[0-9]*, *"failed": *0,' || {
		echo "bench-pair: $what is not correct with 0 failed ops:" >&2
		tail -n 1 "$log" >&2
		exit 1
	}
}
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run "$tmp/ref" ref "$i" "$@"
		run "$here" head "$i" "$@"
	else
		run "$here" head "$i" "$@"
		run "$tmp/ref" ref "$i" "$@"
	fi
	echo "bench-pair: pair $i of $n done" >&2
	i=$((i + 1))
done

digests=$(cat "$tmp"/out/ref.* "$tmp"/out/head.* | awk '$1 == "corpus_digest" { print $2 }' | sort -u)
if [ "$(echo "$digests" | wc -l)" -ne 1 ]; then
	echo "bench-pair: the runs printed different corpus digests:" >&2
	echo "$digests" >&2
	exit 1
fi
echo "corpus_digest $digests (all $((2 * n)) runs)"

# The end-to-end metrics are the report lines "name value unit" that are
# not marked "(reported, not gated)".
metrics() { awk 'NF == 3 && $2 ~ /^-?[0-9.]+$/ && $1 != "corpus_digest" { print $1, $2 }' "$1"; }
printf '%-16s %14s %14s %8s %6s\n' metric REF HEAD ratio wins
for m in $(metrics "$tmp/out/ref.1" | awk '{ print $1 }'); do
	i=1
	: >"$tmp/pairs"
	while [ "$i" -le "$n" ]; do
		echo "$(metrics "$tmp/out/ref.$i" | awk -v m="$m" '$1 == m { print $2 }') $(metrics "$tmp/out/head.$i" | awk -v m="$m" '$1 == m { print $2 }')" >>"$tmp/pairs"
		i=$((i + 1))
	done
	median() { sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }
	r=$(awk '{ print $1 }' "$tmp/pairs" | median)
	h=$(awk '{ print $2 }' "$tmp/pairs" | median)
	wins=$(awk '$2 < $1 { w++ } END { print w + 0 }' "$tmp/pairs")
	awk -v m="$m" -v r="$r" -v h="$h" -v w="$wins" -v n="$n" \
		'BEGIN { printf "%-16s %14.4f %14.4f %8.3f %3d/%d\n", m, r, h, (r == 0) ? 0 : h / r, w, n }'
	awk -v m="$m" '{ r = r " " $1; h = h " " $2 } END { printf "%-16s REF %s\n%-16s HEAD%s\n", m, r, m, h }' "$tmp/pairs" >>"$tmp/runs"
done
echo "runs, pair by pair:"
cat "$tmp/runs"
