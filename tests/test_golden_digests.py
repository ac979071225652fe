"""Behaviour pinned to committed values, not only to a second code path.

``tests/golden/digests.json`` holds the 78 scenario cells (13 named
scenarios x seeds {7, 11, 23} x {rj, co-rj}, 8 sites, audited) and the
four benchmark workloads' full-size ``exact`` blocks for seeds 7 and 23.
A change that moves any of them fails here naming the cell or field.
When the move is intended, regenerate the file with
``PYTHONPATH=src python3 scripts/digest_cells.py --write`` and review
its diff.  Seed 23's blocks run under ``--runslow``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "digest_cells", ROOT / "scripts" / "digest_cells.py"
)
digest_cells = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest_cells)

GOLDEN = json.loads(digest_cells.GOLDEN.read_text())
WORKLOADS = sorted(GOLDEN["exact"]["7"])
REGENERATE = "if intended: PYTHONPATH=src python3 scripts/digest_cells.py --write"


def test_golden_file_covers_every_cell_and_workload():
    labels = [label for label, *_ in digest_cells.cell_names()]
    assert len(labels) == 78
    assert sorted(GOLDEN["cells"]) == sorted(labels)
    assert sorted(GOLDEN["exact"]) == sorted(map(str, digest_cells.EXACT_SEEDS))
    for blocks in GOLDEN["exact"].values():
        assert sorted(blocks) == sorted(digest_cells.drivers().WORKLOADS)


def test_cells_match_golden():
    got = digest_cells.cells()
    moved = [
        label
        for label, digest in GOLDEN["cells"].items()
        if got.get(label) != digest
    ]
    assert not moved, f"cells moved: {', '.join(moved)} ({REGENERATE})"


@pytest.mark.parametrize(
    "seed,workload",
    [(7, workload) for workload in WORKLOADS]
    + [pytest.param(23, workload, marks=pytest.mark.slow) for workload in WORKLOADS],
)
def test_exact_block_matches_golden(seed, workload):
    want = GOLDEN["exact"][str(seed)][workload]
    got = json.loads(json.dumps(digest_cells.exact_block(workload, seed)))
    moved = [
        f"{workload}.{field}: {got.get(field)!r} != golden {want.get(field)!r}"
        for field in sorted(want.keys() | got.keys())
        if got.get(field) != want.get(field)
    ]
    assert not moved, "\n".join(moved + [REGENERATE])
