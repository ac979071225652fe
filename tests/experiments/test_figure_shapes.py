"""The paper's figure shapes at 25 samples, seed 42.

Each test regenerates one figure (or one Fig. 8 panel) and checks its
shape, not absolute numbers:

* Fig. 8 — rejection ratio vs N, four panels (Zipf/random workload x
  heterogeneous/uniform nodes, N = 3..10, STF/LTF/MCTF/RJ): rejection
  grows with N;
* Fig. 9 — Gran-LTF's granularity from 1 (== LTF) toward F (== RJ) at
  N=10: the paper's decreasing curve is *flat* here (EXPERIMENTS.md), so
  the check is that the spectrum stays within a band around its ends;
* Fig. 10 — RJ out-degree utilization and load balance, N = 4..20:
  utilization near 100 %, small deviation, a substantial relay share;
* Fig. 11 — RJ vs CO-RJ under the correlation-aware metric, N = 3..10:
  CO-RJ at least matches RJ at the largest N.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.settings import ExperimentSetting

SAMPLES = 25
SEED = 42

PANELS = [
    ("zipf", "heterogeneous"),   # Fig. 8(a)
    ("zipf", "uniform"),         # Fig. 8(b)
    ("random", "heterogeneous"), # Fig. 8(c)
    ("random", "uniform"),       # Fig. 8(d)
]


@pytest.mark.parametrize("workload,nodes", PANELS)
def test_fig8_panel(workload, nodes):
    setting = ExperimentSetting(
        workload=workload, nodes=nodes, samples=SAMPLES, seed=SEED
    )
    result = run_fig8(setting)
    for name, values in result.series.items():
        assert all(0.0 <= v <= 1.0 for v in values)
    # Rejection trends upward with N.  Heterogeneous panels are lumpy at
    # small N (the 50/25/25 capacity split quantizes coarsely), so the
    # check is growth from the curve's minimum; uniform panels must also
    # grow end-to-end.
    for name in ("rj", "ltf"):
        values = result.series[name]
        assert values[-1] > min(values)
        if nodes == "uniform":
            assert values[-1] > values[0]


def test_fig9_granularity():
    setting = ExperimentSetting(
        workload="random", nodes="uniform", samples=SAMPLES, seed=SEED
    )
    values = run_fig9(setting).series["gran-ltf"]
    assert all(0.0 <= v <= 1.0 for v in values)
    # The spectrum endpoints (LTF-like vs RJ-like) stay within 15 % of
    # each other — the paper's 20 % improvement is not reproduced, but
    # neither does large granularity degrade materially.
    assert values[-1] <= values[0] * 1.15


def test_fig10_utilization():
    setting = replace(
        ExperimentSetting(
            workload="random", nodes="uniform", samples=SAMPLES, seed=SEED
        ),
        mean_subscribers=1.4,
        guarantee_coverage=False,
    )
    result = run_fig10(setting)
    utilization = result.series["out-degree-utilization"]
    relay = result.series["relay-fraction"]
    stddev = result.series["utilization-stddev"]
    # Shape checks: high utilization at every N, meaningful relaying,
    # bounded cross-node imbalance.
    assert all(u > 0.85 for u in utilization)
    assert all(r > 0.05 for r in relay)
    assert all(s < 0.15 for s in stddev)


def test_fig11_correlation():
    setting = replace(
        ExperimentSetting(
            workload="zipf", nodes="heterogeneous", samples=SAMPLES, seed=SEED
        ),
        interest=0.18,
        guarantee_coverage=False,
    )
    result = run_fig11(setting)
    # Direction: CO-RJ at least matches RJ at the largest N on both metrics.
    assert result.series["co-rj"][-1] <= result.series["rj"][-1] * 1.02
    assert result.series["co-rj-eq3"][-1] <= result.series["rj-eq3"][-1] * 1.02
