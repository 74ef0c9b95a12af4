#!/usr/bin/env bash
# Fails when the working tree's steady simbench metrics are worse than
# those of its merge base with a ref (default origin/main) by more than
# the bounds in BENCHMARK.json. The steady metrics are alloc_mb_per_op
# and peak_rss_mb: unlike the time metrics they vary by a few per cent
# between runs, so short runs on a shared CI host can gate them.
#
#   bash scripts/steady-gate.sh [ref]
#
# Run it from the repository root; it needs git and jq. Both sides are
# built from source by their own simbench/run.sh, the base in a
# temporary directory. Each round runs every workload once on each
# side, alternating which side goes first, with the round's seed on
# both; the gate compares the medians of the rounds. No reference
# numbers are stored: both sides run on the same host in the same job.
set -euo pipefail

rounds=3
seconds=5
metrics=(alloc_mb_per_op peak_rss_mb)

root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git merge-base HEAD "${1:-origin/main}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
echo "steady gate: merge base $base against the working tree, $rounds rounds of ${seconds}s"

# run DIR WORKLOAD SEED SIDE: one untraced run; appends its JSON line
# to $tmp/SIDE.WORKLOAD and fails on a failed check or operation.
run() {
	local out
	out=$(cd "$1" && bash simbench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
	echo "$4 $2 seed $3: $out"
	if ! jq -e '.correct and .failed == 0' <<<"$out" >/dev/null; then
		echo "steady gate: $4 $2 seed $3: a check or an operation failed" >&2
		return 1
	fi
	echo "$out" >>"$tmp/$4.$2"
}

# median SIDE WORKLOAD METRIC
median() {
	jq -s --arg m "$3" 'map(.metrics[$m].value) | sort | .[(length - 1) / 2 | floor]' "$tmp/$1.$2"
}

workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
for round in $(seq 1 "$rounds"); do
	for w in $workloads; do
		if ((round % 2)); then
			run "$tmp/base" "$w" "$round" base
			run "$root" "$w" "$round" change
		else
			run "$root" "$w" "$round" change
			run "$tmp/base" "$w" "$round" base
		fi
	done
done

status=0
for w in $workloads; do
	for m in "${metrics[@]}"; do
		bound=$(jq -r --arg m "$m" '.end_to_end[] | select(.name == $m) | .bound' BENCHMARK.json)
		b=$(median base "$w" "$m")
		c=$(median change "$w" "$m")
		verdict=ok
		if jq -e -n --argjson b "$b" --argjson c "$c" --argjson k "$bound" '$c > $b * (1 + $k)' >/dev/null; then
			verdict=WORSE
			status=1
		fi
		printf '%-13s %-16s base %10.3f  change %10.3f  bound +%s  %s\n' "$w" "$m" "$b" "$c" "$bound" "$verdict"
	done
done
exit "$status"
