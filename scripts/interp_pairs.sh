#!/usr/bin/env bash
# Show that one seed gives one answer on every interpreter: run the four
# benchmark workload drivers, the 78 digest cells and the reproduction
# scorecard (`repro.cli scorecard --samples 10 --seed 42`, ~3 s) once
# each under the default python3 and under every
# ~/.pyenv/versions/3.1[0-3]*/bin/python present, and compare their
# `exact` blocks field by field, the cells hash by hash and the scorecard
# line by line.
#
#   scripts/interp_pairs.sh
#
# SEED (default 7) seeds every workload run.  The workloads and cells
# come from scripts/digest_cells.py (its `--exact SEED` mode imports the
# drivers straight from benchmarks/e2e/workloads.py: run.py's child needs
# numpy, which an interpreter may lack; without it the python array
# backend runs, pinned bit-identical to numpy).  Interpreters that are
# absent are skipped.  Exits 1 naming every field, cell or scorecard line
# that differs and the interpreter it differs on.

set -euo pipefail

if [[ $# -ne 0 ]]; then
    sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
SEED="${SEED:-7}"

cd "$(dirname "$0")/.."
WORK="$(mktemp -d "${TMPDIR:-/tmp}/interp-pairs.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

digests() {  # digests <python> <label>  ->  $WORK/<label>.{json,cells,scorecard}
    echo "running the workloads, the cells and the scorecard under $1 ($2)"
    PYTHONPATH="src" "$1" scripts/digest_cells.py --exact "$SEED" >"$WORK/$2.json"
    PYTHONPATH="src" "$1" scripts/digest_cells.py >"$WORK/$2.cells"
    PYTHONPATH="src" "$1" -m repro.cli scorecard --samples 10 --seed 42 \
        >"$WORK/$2.scorecard"
}

where() { "$1" -c 'import os, sys; print(os.path.realpath(sys.executable))'; }
DEFAULT_EXE="$(where python3)"
digests python3 default
LABELS=()
for candidate in "$HOME"/.pyenv/versions/3.1[0-3]*/bin/python; do
    [[ -x "$candidate" ]] || continue
    [[ "$(where "$candidate")" == "$DEFAULT_EXE" ]] && continue
    label="$(basename "$(dirname "$(dirname "$candidate")")")"
    digests "$candidate" "$label"
    LABELS+=("$label")
done

python3 - "$WORK" "$SEED" "${LABELS[@]}" <<'EOF'
import json
import sys
from itertools import zip_longest

work, seed, labels = sys.argv[1], sys.argv[2], sys.argv[3:]
default = json.load(open(f"{work}/default.json"))
for workload, block in default.items():
    print(f"seed {seed} {workload}:")
    for field, value in block.items():
        print(f"  {field:<32} {value!r}")


def cells(label):
    lines = open(f"{work}/{label}.cells").read().splitlines()
    return dict(line.rsplit(" ", 1) for line in lines)


def scorecard(label):
    return open(f"{work}/{label}.scorecard").read().splitlines()


default_cells = cells("default")
print(f"{len(default_cells)} digest cells")
default_scorecard = scorecard("default")
print(default_scorecard[-1].strip())
differing = []
for label in labels:
    other = json.load(open(f"{work}/{label}.json"))
    for workload, block in default.items():
        theirs = other.get(workload, {})
        for field in block.keys() | theirs.keys():
            if block.get(field) != theirs.get(field):
                differing.append(
                    f"{label}: {workload}.{field}: {theirs.get(field)!r} "
                    f"!= {block.get(field)!r} (default)"
                )
    other_cells = cells(label)
    for cell in default_cells.keys() | other_cells.keys():
        if default_cells.get(cell) != other_cells.get(cell):
            differing.append(f"{label}: cell {cell}")
    for mine, theirs in zip_longest(default_scorecard, scorecard(label)):
        if mine != theirs:
            differing.append(f"{label}: scorecard: {theirs!r} != {mine!r} (default)")
checked = ", ".join(labels) or "no other interpreter present"
if differing:
    print(
        f"{len(differing)} field(s), cell(s) or scorecard line(s) differ "
        "from the default interpreter:"
    )
    print("\n".join(sorted(differing)))
    sys.exit(1)
print(
    "every exact field, every cell and the scorecard equal across "
    f"default, {checked}"
)
EOF
