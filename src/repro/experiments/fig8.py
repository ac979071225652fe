"""Figure 8: average rejection ratio of STF/LTF/MCTF/RJ vs. N.

Four panels — (workload, nodes) in {zipf, random} x {heterogeneous,
uniform} — each sweeping N = 3..10 and averaging the rejection ratio
over the setting's workload samples.

Expected shape (paper): rejection grows with N; LTF beats STF (~25 %
under random/heterogeneous); RJ is lowest overall (~16.7 % better than
LTF/MCTF and ~26.7 % better than STF under random/uniform); LTF comes
close to RJ under Zipf.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.metrics import mean_pairwise_rejection
from repro.core.registry import make_builder
from repro.experiments.runner import SeriesResult, sweep_mean_metric
from repro.experiments.settings import ExperimentSetting

#: The four algorithms of Figure 8, in the paper's legend order.
FIG8_ALGORITHMS = ("stf", "ltf", "mctf", "rj")

#: The paper sweeps 3..10 sites.
FIG8_SITES = tuple(range(3, 11))


def run_fig8(
    setting: ExperimentSetting,
    n_sites_values: Sequence[int] = FIG8_SITES,
    algorithms: Sequence[str] = FIG8_ALGORITHMS,
) -> SeriesResult:
    """Regenerate one Fig. 8 panel for ``setting``."""
    builders = {name: make_builder(name) for name in algorithms}
    return sweep_mean_metric(
        setting, list(n_sites_values), builders, mean_pairwise_rejection
    )
