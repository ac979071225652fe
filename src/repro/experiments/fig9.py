"""Figure 9: impact of granularity on rejection ratio.

Gran-LTF constructs ``g`` trees at a time; ``g = 1`` is LTF and ``g = F``
is RJ.  The paper runs ten uniform nodes under the random workload and
finds rejection generally falling as ``g`` grows, with a small
fluctuation region at large granularity.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.granularity import GranularityBuilder
from repro.core.metrics import rejection_ratio
from repro.experiments.runner import SeriesResult, mean_metric_per_builder
from repro.experiments.settings import ExperimentSetting
from repro.topology.backbone import load_backbone

#: Default granularity sweep: dense at the start where the curve moves,
#: sparser toward the RJ end (clamped to each sample's F at build time).
FIG9_GRANULARITIES = (
    1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 30, 40, 50, 60, 80, 100,
)

#: The paper's panel uses ten sites.
FIG9_SITES = 10


def run_fig9(
    setting: ExperimentSetting,
    granularities: Sequence[int] = FIG9_GRANULARITIES,
    n_sites: int = FIG9_SITES,
) -> SeriesResult:
    """Regenerate Fig. 9: mean rejection ratio per granularity value."""
    topology = load_backbone(setting.backbone)
    builders = {
        f"g={g}": GranularityBuilder(granularity=g) for g in granularities
    }
    means = mean_metric_per_builder(
        setting, n_sites, builders, rejection_ratio, topology=topology
    )
    result = SeriesResult(xs=list(granularities))
    for g in granularities:
        result.add_point("gran-ltf", means[f"g={g}"])
    return result
