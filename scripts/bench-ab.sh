#!/usr/bin/env bash
# bench-ab.sh PARENT WORKLOAD [PAIRS [SECONDS [SEED]]]
#
# Compares the working tree with commit PARENT on one benchmark workload:
# bench/run.sh runs PAIRS times on each side (default 10), alternating and
# flipping which side goes first every pair, each run measuring SECONDS
# (default 20; 0 runs each workload's fixed pass count, where byte and
# allocation metrics do not depend on how many ops a side completes) at
# seed SEED, passed to both sides as --seed. Without SEED the runs use the
# benchmark's default seed, the one whose sim_digest it checks; another
# seed rechecks a claim on inputs it was not tuned on. For every end-to-end metric
# BENCHMARK.json declares it prints the median and quartiles of each side,
# how many pairs the working tree won, and a verdict against the metric's
# bound:
#   worse    the working tree's median is worse than the parent's by more
#            than the bound (the run exits 1);
#   gain     better on at least nine pairs in ten, and the medians differ
#            by more than the parent's interquartile range;
#   hold     neither.
# The parent's files are exported with git archive under .bench_build/ab/,
# where its run.sh builds too, so the checkout's git state is untouched;
# each run's result line is kept there beside the others of the batch.
set -euo pipefail
usage="usage: bench-ab.sh PARENT WORKLOAD [PAIRS [SECONDS [SEED]]]"
parent=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seconds=${4:-20}
seed=(${5:+--seed "$5"})
root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$parent^{commit}")
tree="$root/.bench_build/ab/$sha"
if [ ! -f "$tree/bench/run.sh" ]; then
	rm -rf "$tree"
	mkdir -p "$tree"
	git -C "$root" archive "$sha" | tar -x -C "$tree"
fi
out="$root/.bench_build/ab/$workload-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"

run() { # side pair
	local dir=$root
	[ "$1" = parent ] && dir=$tree
	bash "$dir/bench/run.sh" --workload "$workload" --seconds "$seconds" "${seed[@]}" --trace 0 2>/dev/null |
		tail -n 1 >"$out/$1-$2.json"
}
echo "bench-ab: $workload, $pairs pairs of ${seconds}s, seed ${5:-default}, parent ${sha:0:12} against the working tree, nproc $(nproc)"
for i in $(seq -w 1 "$pairs"); do
	if ((10#$i % 2)); then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
	echo "pair $i done" >&2
done

jq -n -r --slurpfile spec "$root/BENCHMARK.json" \
	--slurpfile p <(cat "$out"/parent-*.json) --slurpfile c <(cat "$out"/change-*.json) '
	def q(f): sort as $s | ($s | length) as $n | (($n - 1) * f) as $x | ($x | floor) as $i
		| if $i + 1 < $n then $s[$i] + ($s[$i + 1] - $s[$i]) * ($x - $i) else $s[$i] end;
	def fmt: if . == 0 then "0" elif fabs >= 100 then (. * 10 | round / 10 | tostring)
		else (. * 10000 | round / 10000 | tostring) end;
	"failed ops: parent \([$p[] | .failed] | add) of \([$p[] | .attempted] | add), change \([$c[] | .failed] | add) of \([$c[] | .attempted] | add); correct: parent \(all($p[]; .correct)), change \(all($c[]; .correct))",
	(["metric", "parent median (q1-q3)", "change median (q1-q3)", "delta", "wins", "bound", "verdict"] | @tsv),
	($spec[0].end_to_end[] as $m
	| [$p[] | .metrics[$m.name].value] as $pv | [$c[] | .metrics[$m.name].value] as $cv
	| (if $m.better == "lower" then 1 else -1 end) as $sgn
	| ($pv | q(0.5)) as $pm | ($cv | q(0.5)) as $cm
	| ($pv | q(0.25)) as $p1 | ($pv | q(0.75)) as $p3
	| (if $pm == 0 then 0 else ($cm - $pm) / $pm end) as $rel
	| ([range(0; $pv | length) | select(($cv[.] - $pv[.]) * $sgn < 0)] | length) as $wins
	| [$m.name,
		"\($pm | fmt) (\($p1 | fmt)-\($p3 | fmt))",
		"\($cm | fmt) (\($cv | q(0.25) | fmt)-\($cv | q(0.75) | fmt))",
		"\($rel * 1000 | round / 10)%",
		"\($wins)/\($pv | length)",
		"\($m.bound * 100)%",
		(if $rel * $sgn > $m.bound then "worse"
		elif $wins * 10 >= 9 * ($pv | length) and ($pm - $cm) * $sgn > $p3 - $p1 then "gain"
		else "hold" end)]
	| @tsv)' | tee "$out/summary.tsv" |
	awk -F'\t' 'NF == 1 { print; next } { printf "%-16s %-34s %-34s %8s %6s %5s  %s\n", $1, $2, $3, $4, $5, $6, $7 }'
! grep -q $'\tworse$' "$out/summary.tsv"
