#!/usr/bin/env bash
# Show a performance claim the way benchmarks/e2e/README.md asks: pairs of
# parent and change, alternating which side runs first.
#
#   scripts/bench_pairs.sh <parent-ref> <workload>|all <metric>|all [pairs=10]
#
# The parent is exported (`git archive`) into a temporary directory
# (removed on exit; TMPDIR picks where); the change is this working tree.
# Each side runs its own benchmarks/e2e/run.py, one process at a time,
# with the run length BENCHMARK.json fixes.  Prints every pair, each
# side's median and quartiles, the pair wins (ties count for neither) and
# whether the rule holds: wins on at least nine tenths of the pairs and
# medians apart by more than the distance between the parent's quartiles.
# For an end-to-end metric it also says whether the change's median is
# worse than the parent's by more than the metric's bound.
#
# With `all` in place of a metric, all five end-to-end metrics are read
# from the same child runs and reported one block each: the claimed row
# and the four "not worse" rows of a workload from one session.  With
# `all` in place of the workload, every run measures all four workloads
# (run.py interleaves their passes) and each gets its own blocks: `all
# all` is the claimed row and the nineteen "not worse" rows from one
# alternating session, so box drift between sessions stays out of them.
#
# SEED (default 7) seeds both sides of every pair; repeat with SEED=23,
# the held-out seed.  A per-layer metric is read from the traced pass.

set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
    sed -n '2,27p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
PARENT_REF="$1"
WORKLOAD="$2"
METRIC="$3"
PAIRS="${4:-10}"
SEED="${SEED:-7}"

cd "$(dirname "$0")/.."
CHANGE_DIR="$PWD"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
PARENT_DIR="$WORK/parent"
RUNS="$WORK/runs.jsonl"

mkdir "$PARENT_DIR"
git archive "$PARENT_REF" src benchmarks/e2e BENCHMARK.json | tar -x -C "$PARENT_DIR"
echo "parent $(git rev-parse --short "$PARENT_REF") in $PARENT_DIR"
echo "change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + working tree') in $CHANGE_DIR"

# End-to-end metrics come from the untraced passes, per-layer ones from
# the traced pass; BENCHMARK.json says which is which, which way is up
# and, for the end-to-end ones, the bound.  One "name better bound" line
# per metric to report (bound "-" for a per-layer metric).
cat >"$WORK/metrics.py" <<'EOF'
import json, sys
spec = json.load(open("BENCHMARK.json"))
wanted = sys.argv[1]
if wanted == "all":
    print(0)
    for entry in spec["end_to_end"]:
        print(entry["name"], entry["better"], entry["bound"])
    raise SystemExit
for trace, key in ((0, "end_to_end"), (1, "per_layer")):
    for entry in spec[key]:
        if entry["name"] == wanted:
            print(trace)
            print(entry["name"], entry["better"], entry.get("bound", "-"))
            raise SystemExit
raise SystemExit(f"bench_pairs.sh: BENCHMARK.json declares no metric {wanted!r}")
EOF
python3 "$WORK/metrics.py" "$METRIC" >"$WORK/metrics.txt"
TRACE="$(head -n 1 "$WORK/metrics.txt")"
# run.py measures every workload when none is named.
if [[ "$WORKLOAD" == all ]]; then SELECT=""; else SELECT="--workload $WORKLOAD"; fi

measure() {  # measure <side> <checkout>  ->  one "side <result object>" line
    printf '%s ' "$1" >>"$RUNS"
    (cd "$2" && python3 benchmarks/e2e/run.py $SELECT \
        --seed "$SEED" --trace "$TRACE") | tail -n 1 >>"$RUNS"
}

echo "$WORKLOAD $METRIC, seed $SEED, $PAIRS pairs"
for ((pair = 1; pair <= PAIRS; pair++)); do
    if ((pair % 2)); then
        measure parent "$PARENT_DIR"; measure change "$CHANGE_DIR"; first=parent
    else
        measure change "$CHANGE_DIR"; measure parent "$PARENT_DIR"; first=change
    fi
    echo "pair $pair done ($first first)"
done

python3 - "$WORK/metrics.txt" "$RUNS" "$WORKLOAD" "$SEED" <<'EOF'
import itertools, json, statistics, sys

metrics = [line.split() for line in open(sys.argv[1]).read().splitlines()[1:]]
workload, seed = sys.argv[3:5]
# Several workloads in one run: run.py prefixes each metric with its workload.
workloads = (
    [entry["name"] for entry in json.load(open("BENCHMARK.json"))["workloads"]]
    if workload == "all"
    else [workload]
)
runs = {"parent": [], "change": []}
for line in open(sys.argv[2]):
    side, _, text = line.partition(" ")
    result = json.loads(text)
    if not result["correct"] or result["failed"]:
        raise SystemExit("bench_pairs.sh: a run failed its output checks")
    runs[side].append(result["metrics"])


def describe(name, values):
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    print(f"{name:<7} median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    return q1, median, q3


for workload, (name, better, bound) in itertools.product(workloads, metrics):
    key = f"{workload}.{name}" if len(workloads) > 1 else name
    lower = better == "lower"
    parent = [run[key]["value"] for run in runs["parent"]]
    change = [run[key]["value"] for run in runs["change"]]
    pairs = list(zip(parent, change))
    print(f"\n== {workload} {name} (better: {better}), seed {seed}, {len(pairs)} pairs ==")
    for number, (p, c) in enumerate(pairs, start=1):
        first = "parent" if number % 2 else "change"
        print(f"pair {number:2d}  parent {p:<12.6g} change {c:<12.6g} ({first} first)")
    q1, parent_median, q3 = describe("parent", parent)
    _, change_median, _ = describe("change", change)
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    losses = sum((c > p) if lower else (c < p) for p, c in pairs)
    gain = (parent_median - change_median) if lower else (change_median - parent_median)
    print(f"change wins {wins} of {len(pairs)} pairs, loses {losses}")
    print(f"medians apart by {gain:.6g}, parent's quartiles by {q3 - q1:.6g}")
    holds = wins >= 0.9 * len(pairs) and gain > q3 - q1
    print("rule holds: a gain may be claimed" if holds else "rule does not hold: no gain shown")
    if bound != "-" and parent_median:
        worse = -gain / parent_median
        verdict = "within" if worse <= float(bound) else "BEYOND"
        side = f"{worse:.1%} worse" if worse > 0 else f"{-worse:.1%} better"
        print(f"change's median is {side} than the parent's: {verdict} the bound {bound}")
EOF
