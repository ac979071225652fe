"""Ablations of the design choices called out in DESIGN.md (N=8, seed 42).

* **Parent rule** — the paper's max-rfc load balancing vs first-fit,
  installed test-side: quantifies the load-balancing claim (Sec. 4.3.1).
* **CO-RJ repair sweeps** — on-the-fly swaps only vs post-build repair.
* **Unicast baseline** — the abandoned all-to-all scheme vs the overlay.
"""

from __future__ import annotations

import pytest

from repro.baselines.all_to_all import DirectUnicastBuilder
from repro.core.correlation import CorrelatedRandomJoinBuilder
from repro.core.metrics import criticality_loss_ratio, rejection_ratio
from repro.core.randomized import RandomJoinBuilder
from repro.experiments.runner import mean_metric_per_builder, sample_problems
from repro.experiments.settings import ExperimentSetting
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from tests.reference_paths import use_parent_rule


@pytest.fixture(scope="module")
def setting():
    # Half the figure tests' 25 samples.
    return ExperimentSetting(
        workload="random", nodes="uniform", samples=12, seed=42
    )


@pytest.fixture(scope="module")
def topology():
    return load_backbone("tier1")


def test_parent_policy_ablation(setting, topology):
    """Same samples and, under the same names, the same shuffles."""
    means = mean_metric_per_builder(
        setting, 8, {"max-rfc": RandomJoinBuilder()}, rejection_ratio,
        topology=topology,
    )
    with use_parent_rule("first-fit"):
        means |= mean_metric_per_builder(
            setting, 8, {"first-fit": RandomJoinBuilder()}, rejection_ratio,
            topology=topology,
        )
    # The paper's load-balancing choice must beat naive first-fit.
    assert means["max-rfc"] <= means["first-fit"]


def test_co_rj_repair_ablation(setting, topology):
    """Paired comparison: identical request shuffles, repair on/off.

    Each repair swap strictly trades a high-criticality rejection for a
    lower-criticality one, so on paired runs repair can never lose.
    """
    totals = {"no-repair": 0.0, "repair-2": 0.0}
    count = 0
    for index, problem in enumerate(
        sample_problems(setting, 8, topology=topology)
    ):
        count += 1
        for key, passes in (("no-repair", 0), ("repair-2", 2)):
            builder = CorrelatedRandomJoinBuilder(repair_passes=passes)
            # Same label for both: identical shuffles, paired runs.
            result = builder.build(
                problem, RngStream(setting.seed, label=f"s{index}")
            )
            totals[key] += criticality_loss_ratio(result)
    means = {key: total / count for key, total in totals.items()}
    assert means["repair-2"] <= means["no-repair"] + 1e-12


def test_unicast_vs_overlay(setting, topology):
    builders = {
        "unicast": DirectUnicastBuilder(),
        "rj": RandomJoinBuilder(),
    }
    means = mean_metric_per_builder(
        setting, 8, builders, rejection_ratio, topology=topology
    )
    # The overlay's relaying must beat source-only unicast (Sec. 1).
    assert means["rj"] < means["unicast"]
