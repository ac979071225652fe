#!/usr/bin/env bash
# Show that a refactor moved no behaviour: hash what every named scenario
# emits at the parent and at this working tree, and compare cell by cell.
#
#   scripts/digest_pairs.sh <parent-ref>
#
# The parent is exported (`git archive`) into a temporary directory
# (removed on exit; TMPDIR picks where); the change is this working tree.
# Each side runs scripts/digest_cells.py (this tree's copy): all 13 named
# scenarios x seeds {7, 11, 23} x {rj, co-rj} at 8 sites, audited, one
# hash per cell.  Exits non-zero listing every cell whose hash differs.
# tests/golden/digests.json pins the cells at this commit; this script
# finds the commit that moved one.

set -euo pipefail

if [[ $# -ne 1 ]]; then
    sed -n '2,14p' "$0" | sed 's/^# \{0,1\}//' >&2
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

cells() {  # cells <checkout>  ->  one "cell hash" line per cell
    PYTHONPATH="$1/src" python3 "$CHANGE_DIR/scripts/digest_cells.py"
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
