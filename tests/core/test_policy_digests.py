"""Every builder under every parent policy and reservation mode, pinned.

The golden file (``tests/golden/digests.json``) pins rj and co-rj under
MAX_RFC with lazy reservations only.  The ablation policies, the other
reservation scopes and the tree-at-a-time builders reach the same parent
scan and the same ``BuilderState`` through other states, so each
registry builder x ``ParentPolicy`` x ``reservation_mode`` build of two
small saturated problems is hashed here against committed values.  A
change that moves one fails naming it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.node_join import ParentPolicy
from repro.core.problem import ForestProblem
from repro.core.registry import available_algorithms, make_builder
from repro.session.capacity import HeterogeneousCapacityModel
from repro.session.session import SessionConfig, build_session
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from repro.workload.coverage import CoverageWorkloadModel

#: (seed, sites, B_cost): both problems reject on both saturation modes,
#: and co-rj swaps on every policy and mode.
PROBLEMS = ((3, 12, 90.0), (5, 16, 120.0))
MODES = ("lazy", "phase", "global", "off")


def _problem(seed: int, n_sites: int, bound: float) -> ForestProblem:
    rng = RngStream(seed, label=f"pin/N{n_sites}")
    session = build_session(
        load_backbone(f"synthetic-{n_sites}"),
        HeterogeneousCapacityModel(
            large=9, medium=6, small=3, streams_low=2, streams_high=5
        ),
        rng.spawn("session"),
        SessionConfig(n_sites=n_sites, displays_per_site=2),
    )
    workload = CoverageWorkloadModel(
        mean_subscribers=7.0, guarantee_coverage=False
    ).generate(session, rng.spawn("workload"))
    return ForestProblem.from_workload(session, workload, bound)


_problems: dict[tuple, ForestProblem] = {}


def _digest(algorithm: str, policy: ParentPolicy, mode: str) -> str:
    """Trees in attach order, path costs, outcomes and degrees, hashed."""
    text = []
    for seed, n_sites, bound in PROBLEMS:
        key = (seed, n_sites, bound)
        if key not in _problems:
            _problems[key] = _problem(*key)
        builder = make_builder(
            algorithm, parent_policy=policy, reservation_mode=mode
        )
        result = builder.build(_problems[key], RngStream(seed, label="pin"))
        result.verify()
        for stream, tree in sorted(result.forest.trees.items()):
            text.append(repr((stream, list(tree.parent_map().items()))))
            text.append(repr(list(tree.path_costs().values())))
        text.append(repr(result.forest.satisfied))
        text.append(repr([(r, why.value) for r, why in result.forest.rejected]))
        state = result.state
        text.append(repr((state.din, state.dout, state.m_hat)))
    return hashlib.sha256("\n".join(text).encode()).hexdigest()[:16]


PINNED = {
    "co-rj/max-rfc/lazy": "a974734ee4eb1033",
    "co-rj/max-rfc/phase": "3a1a6cd9ee89c1d8",
    "co-rj/max-rfc/global": "3a1a6cd9ee89c1d8",
    "co-rj/max-rfc/off": "58e164dd02e3ea16",
    "co-rj/min-cost/lazy": "b29cae04a48b2cb7",
    "co-rj/min-cost/phase": "b29cae04a48b2cb7",
    "co-rj/min-cost/global": "b29cae04a48b2cb7",
    "co-rj/min-cost/off": "b939932f5d1f6cc4",
    "co-rj/first-fit/lazy": "dbdcd5e444000cd8",
    "co-rj/first-fit/phase": "dbdcd5e444000cd8",
    "co-rj/first-fit/global": "dbdcd5e444000cd8",
    "co-rj/first-fit/off": "f068cb0d5334072c",
    "gran-ltf/max-rfc/lazy": "64689bfde8f725e9",
    "gran-ltf/max-rfc/phase": "64689bfde8f725e9",
    "gran-ltf/max-rfc/global": "38b5ba9a141cd20a",
    "gran-ltf/max-rfc/off": "4bb937499567f24c",
    "gran-ltf/min-cost/lazy": "492b25ace6bcfe62",
    "gran-ltf/min-cost/phase": "492b25ace6bcfe62",
    "gran-ltf/min-cost/global": "492b25ace6bcfe62",
    "gran-ltf/min-cost/off": "53514459403a8602",
    "gran-ltf/first-fit/lazy": "78148a47ca947859",
    "gran-ltf/first-fit/phase": "78148a47ca947859",
    "gran-ltf/first-fit/global": "78148a47ca947859",
    "gran-ltf/first-fit/off": "b2bd0fe1035f1e4a",
    "ltf/max-rfc/lazy": "64689bfde8f725e9",
    "ltf/max-rfc/phase": "64689bfde8f725e9",
    "ltf/max-rfc/global": "38b5ba9a141cd20a",
    "ltf/max-rfc/off": "4bb937499567f24c",
    "ltf/min-cost/lazy": "492b25ace6bcfe62",
    "ltf/min-cost/phase": "492b25ace6bcfe62",
    "ltf/min-cost/global": "492b25ace6bcfe62",
    "ltf/min-cost/off": "53514459403a8602",
    "ltf/first-fit/lazy": "78148a47ca947859",
    "ltf/first-fit/phase": "78148a47ca947859",
    "ltf/first-fit/global": "78148a47ca947859",
    "ltf/first-fit/off": "b2bd0fe1035f1e4a",
    "mctf/max-rfc/lazy": "3917348e7ee8d4d1",
    "mctf/max-rfc/phase": "3917348e7ee8d4d1",
    "mctf/max-rfc/global": "6b0cf9b434d8a45a",
    "mctf/max-rfc/off": "a20f980a6e2b234f",
    "mctf/min-cost/lazy": "3ac51ed4c47af813",
    "mctf/min-cost/phase": "3ac51ed4c47af813",
    "mctf/min-cost/global": "3ac51ed4c47af813",
    "mctf/min-cost/off": "8b3ecc002f797fc9",
    "mctf/first-fit/lazy": "440571b88841d8cf",
    "mctf/first-fit/phase": "440571b88841d8cf",
    "mctf/first-fit/global": "440571b88841d8cf",
    "mctf/first-fit/off": "b7ca855a42d3fbcd",
    "rj/max-rfc/lazy": "3edebb20679619b5",
    "rj/max-rfc/phase": "42d31bc3c34bd8f4",
    "rj/max-rfc/global": "42d31bc3c34bd8f4",
    "rj/max-rfc/off": "28a94755fa47f680",
    "rj/min-cost/lazy": "c8652bbb0a1e63d8",
    "rj/min-cost/phase": "c8652bbb0a1e63d8",
    "rj/min-cost/global": "c8652bbb0a1e63d8",
    "rj/min-cost/off": "a6fdef9fb2279505",
    "rj/first-fit/lazy": "c81c2334dff2011f",
    "rj/first-fit/phase": "c81c2334dff2011f",
    "rj/first-fit/global": "c81c2334dff2011f",
    "rj/first-fit/off": "921c68dbc7a2e08a",
    "stf/max-rfc/lazy": "a58c201753838916",
    "stf/max-rfc/phase": "a58c201753838916",
    "stf/max-rfc/global": "bc8ad3c717651da3",
    "stf/max-rfc/off": "9b2c1dd65f95a6fe",
    "stf/min-cost/lazy": "c2e97b95d3855d24",
    "stf/min-cost/phase": "c2e97b95d3855d24",
    "stf/min-cost/global": "c2e97b95d3855d24",
    "stf/min-cost/off": "661dba285e1c264a",
    "stf/first-fit/lazy": "50630b236296c357",
    "stf/first-fit/phase": "50630b236296c357",
    "stf/first-fit/global": "50630b236296c357",
    "stf/first-fit/off": "b2481fdc922aa1f6",
}


def test_pins_cover_the_registry():
    combos = {
        f"{algorithm}/{policy.value}/{mode}"
        for algorithm in available_algorithms()
        for policy in ParentPolicy
        for mode in MODES
    }
    assert set(PINNED) == combos


@pytest.mark.parametrize("label", sorted(PINNED))
def test_build_matches_pin(label):
    algorithm, policy, mode = label.split("/")
    assert _digest(algorithm, ParentPolicy(policy), mode) == PINNED[label]
