"""Every registry builder, pinned.

The golden file (``tests/golden/digests.json``) pins rj and co-rj
through scenario runs.  The tree-at-a-time builders and Gran-LTF reach
the same parent scan and the same ``BuilderState`` through other
orders, so each registry builder's build of two small saturated
problems is hashed here against committed values.  A change that moves
one fails naming it.

Each builder's build of every problem in :mod:`tests.core.regimes`
(nothing rejected, only the latency bound rejecting, degree-bound,
skewed interest, other sizes and display counts) is pinned one by one
as well.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.problem import ForestProblem
from repro.core.registry import available_algorithms, make_builder
from repro.session.capacity import HeterogeneousCapacityModel
from repro.session.session import SessionConfig, build_session
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from repro.workload.coverage import CoverageWorkloadModel
from tests.core.regimes import REGIMES, regime_problem

#: (seed, sites, B_cost): both problems reject on both saturation modes,
#: and co-rj swaps.
PROBLEMS = ((3, 12, 90.0), (5, 16, 120.0))


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


def _build_lines(algorithm: str, problem: ForestProblem, seed: int) -> list:
    """Trees in attach order, path costs, outcomes and degrees."""
    builder = make_builder(algorithm)
    result = builder.build(problem, RngStream(seed, label="pin"))
    result.verify()
    text = []
    for stream, tree in sorted(result.forest.trees.items()):
        text.append(repr((stream, list(tree.parent_map().items()))))
        text.append(repr(list(tree.path_costs().values())))
    text.append(repr(result.forest.satisfied))
    text.append(repr([(r, why.value) for r, why in result.forest.rejected]))
    state = result.state
    text.append(repr((state.din, state.dout, state.m_hat)))
    return text


def _hash(text: list) -> str:
    return hashlib.sha256("\n".join(text).encode()).hexdigest()[:16]


def _digest(algorithm: str) -> str:
    text = []
    for seed, n_sites, bound in PROBLEMS:
        key = (seed, n_sites, bound)
        if key not in _problems:
            _problems[key] = _problem(*key)
        text.extend(_build_lines(algorithm, _problems[key], seed))
    return _hash(text)


PINNED = {
    "co-rj": "a974734ee4eb1033",
    "gran-ltf": "64689bfde8f725e9",
    "ltf": "64689bfde8f725e9",
    "mctf": "3917348e7ee8d4d1",
    "rj": "3edebb20679619b5",
    "stf": "a58c201753838916",
}


def test_pins_cover_the_registry():
    assert set(PINNED) == set(available_algorithms())


@pytest.mark.parametrize("algorithm", sorted(PINNED))
def test_build_matches_pin(algorithm):
    assert _digest(algorithm) == PINNED[algorithm]


#: ``<builder>/<regime>``: one build of one regime's problem.
REGIME_PINNED = {
    "co-rj/ample": "ca10dabed4dd7871",
    "co-rj/degree-bound": "c0dc240775ce7029",
    "co-rj/dense-interest": "bae7aacb33ace084",
    "co-rj/full-coverage": "87da7e50af4ddc7a",
    "co-rj/latency-bound": "8ebcf6cb40341cc6",
    "co-rj/n24": "7b42ea708642400e",
    "co-rj/n32-default-capacity": "8b0d5b1bb0072667",
    "co-rj/one-display": "4fe3992cab154459",
    "co-rj/three-displays": "60d588aee66d2781",
    "co-rj/zipf-focus": "6283ba6d29204545",
    "gran-ltf/ample": "b2e58479758608b0",
    "gran-ltf/degree-bound": "1919481d38b5d896",
    "gran-ltf/dense-interest": "7f77f03dc7b96da0",
    "gran-ltf/full-coverage": "5ffb04e083c4932c",
    "gran-ltf/latency-bound": "9877984c1af0cec5",
    "gran-ltf/n24": "ff0fe199287b0595",
    "gran-ltf/n32-default-capacity": "37ba70892fba49da",
    "gran-ltf/one-display": "43186b1e6fc37245",
    "gran-ltf/three-displays": "f268b26e77903bc1",
    "gran-ltf/zipf-focus": "cec3a102f912e8a4",
    "ltf/ample": "b2e58479758608b0",
    "ltf/degree-bound": "1919481d38b5d896",
    "ltf/dense-interest": "7f77f03dc7b96da0",
    "ltf/full-coverage": "5ffb04e083c4932c",
    "ltf/latency-bound": "9877984c1af0cec5",
    "ltf/n24": "ff0fe199287b0595",
    "ltf/n32-default-capacity": "37ba70892fba49da",
    "ltf/one-display": "43186b1e6fc37245",
    "ltf/three-displays": "f268b26e77903bc1",
    "ltf/zipf-focus": "cec3a102f912e8a4",
    "mctf/ample": "46a1624841ba657d",
    "mctf/degree-bound": "146e3b1cb7bbf929",
    "mctf/dense-interest": "60e1e1a626a71041",
    "mctf/full-coverage": "f5ec0a776c0400e6",
    "mctf/latency-bound": "74f1f86b84da3e51",
    "mctf/n24": "43d2c5926d24d22a",
    "mctf/n32-default-capacity": "1ad5bc94bdff4a61",
    "mctf/one-display": "a6b650b4af2a8b64",
    "mctf/three-displays": "0c77d712828fff10",
    "mctf/zipf-focus": "349d1d24d38121da",
    "rj/ample": "ca10dabed4dd7871",
    "rj/degree-bound": "0ad646ab2afbab7b",
    "rj/dense-interest": "8870571f038208f9",
    "rj/full-coverage": "409578a2dad7821b",
    "rj/latency-bound": "8ebcf6cb40341cc6",
    "rj/n24": "74d009fea288de57",
    "rj/n32-default-capacity": "d34d60c66139f239",
    "rj/one-display": "ea1ca6f26b178b65",
    "rj/three-displays": "3a4f35140ea4bf25",
    "rj/zipf-focus": "e71d540263bf16f2",
    "stf/ample": "8f8e0772d99ffc45",
    "stf/degree-bound": "2c6c10f834f0c186",
    "stf/dense-interest": "67d9abee5ab352f3",
    "stf/full-coverage": "c2eddce0f503c132",
    "stf/latency-bound": "874064de7408c8a4",
    "stf/n24": "9a780802f8aef852",
    "stf/n32-default-capacity": "b472220cb9e6136e",
    "stf/one-display": "a6664c3c02a76063",
    "stf/three-displays": "6f0dea97e9b05fd1",
    "stf/zipf-focus": "d227f460fcdd7cc4",
}


def test_regime_pins_cover_registry_and_regimes():
    assert REGIME_PINNED.keys() == {
        f"{algorithm}/{regime}"
        for algorithm in available_algorithms()
        for regime in REGIMES
    }


@pytest.mark.parametrize("key", sorted(REGIME_PINNED))
def test_regime_build_matches_pin(key):
    algorithm, regime = key.split("/")
    text = _build_lines(algorithm, regime_problem(regime), REGIMES[regime].seed)
    assert _hash(text) == REGIME_PINNED[key]


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_regime_meets_its_rejection_reasons(regime):
    """CO-RJ's build of each regime rejects for the reasons it names."""
    result = make_builder("co-rj").build(
        regime_problem(regime), RngStream(REGIMES[regime].seed, label="pin")
    )
    met = {why.value for _, why in result.forest.rejected}
    assert met == REGIMES[regime].reasons
    assert result.forest.satisfied
