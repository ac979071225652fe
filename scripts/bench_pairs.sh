#!/usr/bin/env bash
# Show a performance claim the way benchmarks/e2e/README.md asks: pairs of
# parent and change, alternating which side runs first.
#
#   scripts/bench_pairs.sh <parent-ref> <workload> <metric> [pairs=10]
#
# The parent is checked out into a temporary `git worktree` (removed on
# exit); the change is this working tree.  Each side runs its own
# benchmarks/e2e/run.py, one process at a time, with the run length
# BENCHMARK.json fixes.  Prints every pair, each side's median and
# quartiles, the pair wins (ties count for neither) and whether the rule
# holds: wins on at least nine tenths of the pairs and medians apart by
# more than the distance between the parent's quartiles.
#
# SEED (default 7) seeds both sides of every pair; repeat with SEED=23,
# the held-out seed.  A per-layer metric is read from the traced pass.

set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
    sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
PARENT_REF="$1"
WORKLOAD="$2"
METRIC="$3"
PAIRS="${4:-10}"
SEED="${SEED:-7}"

cd "$(dirname "$0")/.."
CHANGE_DIR="$PWD"
PARENT_DIR="$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs-parent.XXXXXX")"
VALUES="$(mktemp "${TMPDIR:-/tmp}/bench-pairs-values.XXXXXX")"

cleanup() {
    git -C "$CHANGE_DIR" worktree remove --force "$PARENT_DIR" >/dev/null 2>&1 || true
    git -C "$CHANGE_DIR" worktree prune >/dev/null 2>&1 || true
    rm -rf "$PARENT_DIR" "$VALUES"
}
trap cleanup EXIT

git worktree add --detach "$PARENT_DIR" "$PARENT_REF" >/dev/null
echo "parent $(git -C "$PARENT_DIR" rev-parse --short HEAD) in $PARENT_DIR"
echo "change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + working tree') in $CHANGE_DIR"

# End-to-end metrics come from the untraced passes, per-layer ones from
# the traced pass; BENCHMARK.json says which is which and which way is up.
read -r TRACE BETTER < <(python3 - "$METRIC" <<'EOF'
import json, sys
spec = json.load(open("BENCHMARK.json"))
metric = sys.argv[1]
for trace, key in ((0, "end_to_end"), (1, "per_layer")):
    for entry in spec[key]:
        if entry["name"] == metric:
            print(trace, entry["better"])
            raise SystemExit
raise SystemExit(f"bench_pairs.sh: BENCHMARK.json declares no metric {metric!r}")
EOF
)

measure() {  # measure <checkout>  ->  the metric's value
    (cd "$1" && python3 benchmarks/e2e/run.py --workload "$WORKLOAD" \
        --seed "$SEED" --trace "$TRACE") | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.readline())
if not result["correct"] or result["failed"]:
    raise SystemExit("bench_pairs.sh: the run failed its output checks")
print(result["metrics"][sys.argv[1]]["value"])' "$METRIC"
}

echo "$WORKLOAD $METRIC (better: $BETTER), seed $SEED, $PAIRS pairs"
for ((pair = 1; pair <= PAIRS; pair++)); do
    if ((pair % 2)); then
        parent=$(measure "$PARENT_DIR"); change=$(measure "$CHANGE_DIR"); first=parent
    else
        change=$(measure "$CHANGE_DIR"); parent=$(measure "$PARENT_DIR"); first=change
    fi
    echo "$parent $change" >>"$VALUES"
    printf 'pair %2d  parent %-12.6g change %-12.6g (%s first)\n' \
        "$pair" "$parent" "$change" "$first"
done

python3 - "$VALUES" "$BETTER" <<'EOF'
import statistics, sys

pairs = [tuple(map(float, line.split())) for line in open(sys.argv[1])]
lower = sys.argv[2] == "lower"
parent, change = zip(*pairs)


def describe(name, values):
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    print(f"{name:<7} median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    return q1, median, q3


q1, parent_median, q3 = describe("parent", parent)
_, change_median, _ = describe("change", change)
wins = sum((c < p) if lower else (c > p) for p, c in pairs)
losses = sum((c > p) if lower else (c < p) for p, c in pairs)
gain = (parent_median - change_median) if lower else (change_median - parent_median)
print(f"change wins {wins} of {len(pairs)} pairs, loses {losses}")
print(f"medians apart by {gain:.6g}, parent's quartiles by {q3 - q1:.6g}")
holds = wins >= 0.9 * len(pairs) and gain > q3 - q1
print("rule holds: a gain may be claimed" if holds else "rule does not hold: no gain shown")
EOF
