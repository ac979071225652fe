#!/usr/bin/env bash
# Show that a refactor moved no behaviour: hash what every named scenario
# emits at the parent and at this working tree, and compare cell by cell.
#
#   scripts/digest_pairs.sh <parent-ref>
#
# The parent is exported (`git archive`) into a temporary directory
# (removed on exit; TMPDIR picks where); the change is this working tree.
# Each side runs all 13 named scenarios x seeds {7, 11, 23} x {rj, co-rj}
# at 8 sites, audited, and hashes per cell the emitted directives (epoch,
# edges, rejected), the server's soft_state_digest() and report.summary().
# Exits non-zero listing every cell whose hash differs.  The repo commits
# no golden digests — every other pin compares two paths inside one
# commit — so this is the check that a change did not move both sides.

set -euo pipefail

if [[ $# -ne 1 ]]; then
    sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
PARENT_REF="$1"

cd "$(dirname "$0")/.."
CHANGE_DIR="$PWD"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/digest-pairs.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/parent"
git archive "$PARENT_REF" src | tar -x -C "$WORK/parent"
echo "parent $(git rev-parse --short "$PARENT_REF") in $WORK/parent"
echo "change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + working tree') in $CHANGE_DIR"

cat >"$WORK/cells.py" <<'EOF'
import hashlib
from dataclasses import replace

from repro.scenarios import (
    ScenarioRuntime,
    chaos_scenario_names,
    get_scenario,
    scenario_names,
)

for name in scenario_names() + chaos_scenario_names():
    for seed in (7, 11, 23):
        for algorithm in ("rj", "co-rj"):
            spec = replace(
                get_scenario(name, sites=8, seed=seed), algorithm=algorithm
            )
            runtime = ScenarioRuntime(spec, audit=True)
            report = runtime.run()
            digest = hashlib.sha256()
            for directive in runtime.directives:
                digest.update(
                    f"{directive.epoch}|{directive.edges!r}|"
                    f"{directive.rejected!r};".encode()
                )
            digest.update(runtime.server.soft_state_digest().encode())
            digest.update(report.summary().encode())
            print(f"{name} seed={seed} {algorithm} {digest.hexdigest()}")
EOF

cells() {  # cells <checkout>  ->  one "cell hash" line per cell
    PYTHONPATH="$1/src" python3 "$WORK/cells.py"
}

cells "$WORK/parent" >"$WORK/parent.txt"
cells "$CHANGE_DIR" >"$WORK/change.txt"

python3 - "$WORK/parent.txt" "$WORK/change.txt" <<'EOF'
import sys

parent, change = (
    {line.rsplit(" ", 1)[0]: line.rsplit(" ", 1)[1] for line in open(path)}
    for path in sys.argv[1:3]
)
differing = sorted(
    cell for cell in parent.keys() | change.keys()
    if parent.get(cell) != change.get(cell)
)
for cell in differing:
    print(f"DIFFERS: {cell}")
total = len(parent.keys() | change.keys())
print(f"{total - len(differing)}/{total} cells identical")
sys.exit(1 if differing else 0)
EOF
