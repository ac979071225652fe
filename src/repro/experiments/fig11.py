"""Figure 11: RJ vs CO-RJ under the correlation-aware rejection metric.

Heterogeneous nodes, Zipf workload, N = 3..10, with the rejection metric
redefined to account for stream correlation (Eq. 3).  The paper's
finding: CO-RJ's weighted rejection *decreases* as sites grow (more
trees mean more swap opportunities) while RJ's grows; at N = 10 CO-RJ is
a factor of ~5 better.

We plot the bounded criticality-loss ratio (DESIGN.md metric note) and
also record Eq. 3 verbatim in a second pair of series.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.correlation import CorrelatedRandomJoinBuilder
from repro.core.metrics import correlation_weighted_rejection, criticality_loss_ratio
from repro.core.randomized import RandomJoinBuilder
from repro.experiments.runner import SeriesResult, audit_hook, sample_problems
from repro.experiments.settings import ExperimentSetting
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream

#: The paper sweeps 3..10 sites.
FIG11_SITES = tuple(range(3, 11))

#: Fig. 11 calibration (DESIGN.md), applied to a zipf/heterogeneous
#: setting: denser interest and no coverage guarantee, so critically
#: lost streams belong to real multicast groups that CO-RJ's swap can
#: actually use (solo-subscriber trees admit no victim parent).
FIG11_CALIBRATION = {"interest": 0.18, "guarantee_coverage": False}


def run_fig11(
    setting: ExperimentSetting,
    n_sites_values: Sequence[int] = FIG11_SITES,
) -> SeriesResult:
    """Regenerate Fig. 11: the two algorithms' correlation-aware rejection."""
    topology = load_backbone(setting.backbone)
    builders = {"rj": RandomJoinBuilder(), "co-rj": CorrelatedRandomJoinBuilder()}
    auditor = audit_hook(setting)
    result = SeriesResult(xs=list(n_sites_values))
    build_root = RngStream(setting.seed, label=f"{setting.label()}-fig11")
    for n_sites in n_sites_values:
        totals = {name: 0.0 for name in builders}
        eq3_totals = {name: 0.0 for name in builders}
        count = 0
        for index, problem in enumerate(
            sample_problems(setting, n_sites, topology=topology)
        ):
            count += 1
            for name, builder in builders.items():
                rng = build_root.spawn(f"N{n_sites}/sample{index}/{name}")
                build = builder.build(problem, rng)
                if auditor is not None:
                    auditor.audit_build(
                        build, event=f"fig11/N{n_sites}/{index}/{name}"
                    )
                totals[name] += criticality_loss_ratio(build)
                eq3_totals[name] += correlation_weighted_rejection(build)
        for name in builders:
            result.add_point(name, totals[name] / count)
            result.add_point(f"{name}-eq3", eq3_totals[name] / count)
    return result


def improvement_factor(result: SeriesResult, suffix: str = "") -> float:
    """CO-RJ's improvement factor over RJ at the largest N.

    ``suffix=""`` compares the bounded criticality-loss series;
    ``suffix="-eq3"`` compares Eq. 3 verbatim.
    """
    rj = result.series["rj" + suffix][-1]
    co = result.series["co-rj" + suffix][-1]
    if co == 0.0:
        return float("inf")
    return rj / co
