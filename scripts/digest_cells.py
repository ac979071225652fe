"""The golden digests: 78 scenario cells and the benchmark `exact` blocks.

A cell is one named scenario x seed {7, 11, 23} x algorithm {rj, co-rj}
at 8 sites, audited; its hash covers the emitted directives (epoch,
edges, rejected), the server's soft_state_digest() and report.summary().
An `exact` block is what one benchmark workload driver
(benchmarks/e2e/workloads.py, full size) must repeat exactly per seed.

    PYTHONPATH=src python3 scripts/digest_cells.py            # print cells
    PYTHONPATH=src python3 scripts/digest_cells.py --exact 7  # print blocks
    PYTHONPATH=src python3 scripts/digest_cells.py --write    # regenerate

`--write` rewrites tests/golden/digests.json (the cells plus the blocks
of seeds 7 and 23), which tests/test_golden_digests.py checks.  Cells
print as `<name> seed=<seed> <algorithm> <sha256>`, one a line; the
blocks print as one JSON object.  The `repro` package is whatever
PYTHONPATH selects, so scripts/digest_pairs.sh and
scripts/interp_pairs.sh run this file against other checkouts and
interpreters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "digests.json"
SEEDS = (7, 11, 23)
ALGORITHMS = ("rj", "co-rj")
#: Seeds whose full-size `exact` blocks the golden file holds.
EXACT_SEEDS = (7, 23)


def cell_names() -> list[tuple[str, str, int, str]]:
    """Every cell as ``(label, scenario, seed, algorithm)``, in print order."""
    from repro.scenarios import chaos_scenario_names, scenario_names

    return [
        (f"{name} seed={seed} {algorithm}", name, seed, algorithm)
        for name in scenario_names() + chaos_scenario_names()
        for seed in SEEDS
        for algorithm in ALGORITHMS
    ]


def cell_digest(name: str, seed: int, algorithm: str) -> str:
    """The SHA-256 of one audited 8-site scenario run."""
    from repro.scenarios import ScenarioRuntime, get_scenario

    spec = replace(get_scenario(name, sites=8, seed=seed), algorithm=algorithm)
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
    return digest.hexdigest()


def cells() -> dict[str, str]:
    """``label -> hash`` for all cells."""
    return {label: cell_digest(*key) for label, *key in cell_names()}


def drivers():
    """The benchmark's ``workloads`` module (its drivers and sizes)."""
    harness = str(ROOT / "benchmarks" / "e2e")
    if harness not in sys.path:
        sys.path.insert(0, harness)
    import workloads

    return workloads


def exact_block(workload: str, seed: int) -> dict:
    """One workload driver's full-size `exact` block for ``seed``."""
    module = drivers()
    return module.WORKLOADS[workload](seed, module.SIZES["full"][workload])["exact"]


def exact_blocks(seed: int) -> dict[str, dict]:
    """``workload -> exact block`` for every benchmark workload."""
    return {name: exact_block(name, seed) for name in drivers().WORKLOADS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--exact", type=int, metavar="SEED",
                      help="print the workloads' exact blocks for SEED")
    mode.add_argument("--write", action="store_true",
                      help=f"regenerate {GOLDEN.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    if args.exact is not None:
        print(json.dumps(exact_blocks(args.exact)))
    elif args.write:
        golden = {
            "cells": cells(),
            "exact": {str(seed): exact_blocks(seed) for seed in EXACT_SEEDS},
        }
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
    else:
        for label, digest in cells().items():
            print(f"{label} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
