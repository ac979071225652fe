"""Figure 10: out-degree utilization and load balancing of RJ.

With uniform nodes under the random workload, N = 4..20, the paper
reports (1) average out-degree utilization close to 100 %, (2) standard
deviation across nodes below 3 %, and (3) about 25 % of each node's
out-degree devoted to relaying streams that originate at other nodes —
the multicast saving over all-to-all unicast.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.metrics import ForestMetrics
from repro.core.randomized import RandomJoinBuilder
from repro.experiments.runner import SeriesResult, audit_hook, sample_problems
from repro.experiments.settings import ExperimentSetting
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream

#: The paper sweeps 4..20 nodes for this figure.
FIG10_SITES = tuple(range(4, 21, 2))


def run_fig10(
    setting: ExperimentSetting,
    n_sites_values: Sequence[int] = FIG10_SITES,
) -> SeriesResult:
    """Regenerate Fig. 10: utilization / relay-fraction / stddev vs. N."""
    # Fig. 10 calibration (DESIGN.md): a constant expected subscriber
    # count per stream keeps outbound utilization near 1 and leaves the
    # ~25 % relay share at every N; the coverage guarantee is off so
    # unpopular streams release source capacity for relaying.
    if setting.mean_subscribers is None:
        setting = replace(
            setting, mean_subscribers=1.4, guarantee_coverage=False
        )
    topology = load_backbone(setting.backbone)
    builder = RandomJoinBuilder()
    auditor = audit_hook(setting)
    result = SeriesResult(xs=list(n_sites_values))
    build_root = RngStream(setting.seed, label=f"{setting.label()}-fig10")
    for n_sites in n_sites_values:
        total_util = 0.0
        total_std = 0.0
        total_relay = 0.0
        count = 0
        for index, problem in enumerate(
            sample_problems(setting, n_sites, topology=topology)
        ):
            rng = build_root.spawn(f"N{n_sites}/sample{index}")
            build = builder.build(problem, rng)
            if auditor is not None:
                auditor.audit_build(build, event=f"fig10/N{n_sites}/{index}")
            metrics = ForestMetrics.of(build)
            total_util += metrics.mean_out_utilization
            total_std += metrics.std_out_utilization
            total_relay += metrics.mean_relay_fraction
            count += 1
        result.add_point("out-degree-utilization", total_util / count)
        result.add_point("utilization-stddev", total_std / count)
        result.add_point("relay-fraction", total_relay / count)
    return result
