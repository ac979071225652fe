#!/usr/bin/env bash
# Show that one seed gives one answer on every interpreter: run the four
# benchmark workload drivers once each under the default python3 and
# under every ~/.pyenv/versions/3.1[0-3]*/bin/python present, and compare
# their `exact` blocks field by field.
#
#   scripts/interp_pairs.sh
#
# SEED (default 7) seeds every run.  The drivers are imported straight
# from benchmarks/e2e/workloads.py (run.py's child needs numpy, which an
# interpreter may lack; without it the python array backend runs, pinned
# bit-identical to numpy).  Interpreters that are absent are skipped.
# Exits 1 naming every field that differs and the interpreter it differs
# on.

set -euo pipefail

if [[ $# -ne 0 ]]; then
    sed -n '2,14p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
SEED="${SEED:-7}"

cd "$(dirname "$0")/.."
WORK="$(mktemp -d "${TMPDIR:-/tmp}/interp-pairs.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

cat >"$WORK/exact.py" <<'EOF'
import json
import sys

sys.path.insert(0, "benchmarks/e2e")
import workloads

seed = int(sys.argv[1])
print(json.dumps({
    name: driver(seed, workloads.SIZES["full"][name])["exact"]
    for name, driver in workloads.WORKLOADS.items()
}))
EOF

exact() {  # exact <python> <label>  ->  $WORK/<label>.json
    echo "running the workloads under $1 ($2)"
    PYTHONPATH="src" "$1" "$WORK/exact.py" "$SEED" >"$WORK/$2.json"
}

where() { "$1" -c 'import os, sys; print(os.path.realpath(sys.executable))'; }
DEFAULT_EXE="$(where python3)"
exact python3 default
LABELS=()
for candidate in "$HOME"/.pyenv/versions/3.1[0-3]*/bin/python; do
    [[ -x "$candidate" ]] || continue
    [[ "$(where "$candidate")" == "$DEFAULT_EXE" ]] && continue
    label="$(basename "$(dirname "$(dirname "$candidate")")")"
    exact "$candidate" "$label"
    LABELS+=("$label")
done

python3 - "$WORK" "$SEED" "${LABELS[@]}" <<'EOF'
import json
import sys

work, seed, labels = sys.argv[1], sys.argv[2], sys.argv[3:]
default = json.load(open(f"{work}/default.json"))
for workload, block in default.items():
    print(f"seed {seed} {workload}:")
    for field, value in block.items():
        print(f"  {field:<32} {value!r}")
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
checked = ", ".join(labels) or "no other interpreter present"
if differing:
    print(f"{len(differing)} field(s) differ from the default interpreter:")
    print("\n".join(sorted(differing)))
    sys.exit(1)
print(f"every exact field equal across default, {checked}")
EOF
