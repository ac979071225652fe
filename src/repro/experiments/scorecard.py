"""Machine-checkable reproduction scorecard.

This module states, per figure, which of the paper's qualitative
shapes this library reproduces, as executable checks over freshly-run
harness results, so the scorecard can never silently drift from the
code: ``tele3d scorecard`` (or the corresponding test) re-runs every
figure at a reduced sample count and evaluates each claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import (
    FIG11_CALIBRATION,
    improvement_factor,
    run_fig11,
)
from repro.experiments.settings import ExperimentSetting
from repro.util.floats import left_sum


@dataclass(frozen=True)
class Claim:
    """One shape claim: an artifact, a statement, and its verdict."""

    artifact: str
    statement: str
    holds: bool
    detail: str = ""

    def render(self) -> str:
        """One scorecard line."""
        mark = "PASS" if self.holds else "FAIL"
        detail = f"  [{self.detail}]" if self.detail else ""
        return f"[{mark}] {self.artifact}: {self.statement}{detail}"


def evaluate_fig8(samples: int = 40, seed: int = 42) -> list[Claim]:
    """Shape claims for the two extreme Fig. 8 panels."""
    claims: list[Claim] = []
    for workload, nodes in (("random", "uniform"), ("zipf", "heterogeneous")):
        setting = ExperimentSetting(
            workload=workload, nodes=nodes, samples=samples, seed=seed
        )
        result = run_fig8(setting)
        label = f"fig8 {workload}/{nodes}"
        rj, ltf = result.series["rj"], result.series["ltf"]
        stf, mctf = result.series["stf"], result.series["mctf"]
        claims.append(
            Claim(
                label,
                "rejection trends upward with N",
                rj[-1] > min(rj) and ltf[-1] > min(ltf),
                f"rj {rj[0]:.3f}->{rj[-1]:.3f}",
            )
        )
        if nodes == "heterogeneous":
            # LTF's whole-tree advantage shows across the full sweep.
            claims.append(
                Claim(
                    label,
                    "LTF beats STF on average",
                    left_sum(ltf) < left_sum(stf),
                    f"mean ltf {left_sum(ltf)/len(ltf):.4f} "
                    f"vs stf {left_sum(stf)/len(stf):.4f}",
                )
            )
        else:
            # In uniform panels STF catches up once inbound saturates
            # (N >= 8, documented deviation); claim the first half.
            half = len(result.xs) // 2 + 1
            claims.append(
                Claim(
                    label,
                    "LTF beats-or-ties STF over the first half of the sweep "
                    "(STF catches up at large N — documented deviation)",
                    left_sum(ltf[:half]) <= left_sum(stf[:half]) * 1.005,
                    f"first-half ltf {left_sum(ltf[:half]):.4f} "
                    f"vs stf {left_sum(stf[:half]):.4f}",
                )
            )
        claims.append(
            Claim(
                label,
                "RJ within 5% of the best algorithm on average "
                "(paper: RJ best outright)",
                left_sum(rj)
                <= 1.05 * min(left_sum(ltf), left_sum(stf), left_sum(mctf)),
                f"mean rj {left_sum(rj)/len(rj):.4f}",
            )
        )
    return claims


def evaluate_fig9(samples: int = 40, seed: int = 42) -> list[Claim]:
    """Shape claims for the granularity spectrum."""
    setting = ExperimentSetting(
        workload="random", nodes="uniform", samples=samples, seed=seed
    )
    result = run_fig9(setting)
    values = result.series["gran-ltf"]
    spread = (max(values) - min(values)) / max(min(values), 1e-9)
    return [
        Claim(
            "fig9",
            "granularity spectrum stays within a 15% band "
            "(paper's 20% gain NOT reproduced — documented)",
            spread <= 0.15,
            f"band {spread:.1%}",
        ),
        Claim(
            "fig9",
            "large granularity does not degrade beyond 10% of g=1",
            values[-1] <= values[0] * 1.10,
            f"g=1 {values[0]:.4f} vs g=max {values[-1]:.4f}",
        ),
    ]


def evaluate_fig10(samples: int = 25, seed: int = 42) -> list[Claim]:
    """Shape claims for load balancing."""
    setting = ExperimentSetting(
        workload="random", nodes="uniform", samples=samples, seed=seed
    )
    result = run_fig10(setting)
    utilization = result.series["out-degree-utilization"]
    relay = result.series["relay-fraction"]
    stddev = result.series["utilization-stddev"]
    return [
        Claim(
            "fig10",
            "out-degree utilization high and stable across N",
            min(utilization) > 0.85
            and max(utilization) - min(utilization) < 0.1,
            f"range {min(utilization):.3f}..{max(utilization):.3f}",
        ),
        Claim(
            "fig10",
            "meaningful relay share at every N (paper ~25%, ours ~11-15%)",
            all(r > 0.05 for r in relay),
            f"range {min(relay):.3f}..{max(relay):.3f}",
        ),
        Claim(
            "fig10",
            "cross-node utilization stddev bounded (paper <3%, ours <15%)",
            all(s < 0.15 for s in stddev),
            f"max {max(stddev):.3f}",
        ),
    ]


def evaluate_fig11(samples: int = 25, seed: int = 42) -> list[Claim]:
    """Shape claims for the correlation optimization."""
    setting = ExperimentSetting(
        workload="zipf", nodes="heterogeneous", samples=samples, seed=seed,
        **FIG11_CALIBRATION,
    )
    result = run_fig11(setting)
    co, rj = result.series["co-rj"], result.series["rj"]
    factor = improvement_factor(result, suffix="-eq3")
    early_gap = rj[0] - co[0]
    late_gap = rj[-1] - co[-1]
    return [
        Claim(
            "fig11",
            "CO-RJ never worse than RJ (within 2% noise) at any N",
            all(c <= r * 1.02 for c, r in zip(co, rj)),
        ),
        Claim(
            "fig11",
            "CO-RJ's advantage grows with N",
            late_gap > early_gap,
            f"gap {early_gap:.4f} -> {late_gap:.4f}",
        ),
        Claim(
            "fig11",
            "Eq.3 improvement factor > 1.2x at N=10 (paper: 5x — partial)",
            factor > 1.2,
            f"{factor:.2f}x",
        ),
    ]


def full_scorecard(samples: int = 30, seed: int = 42) -> list[Claim]:
    """Every claim, freshly evaluated."""
    claims: list[Claim] = []
    claims.extend(evaluate_fig8(samples=samples, seed=seed))
    claims.extend(evaluate_fig9(samples=samples, seed=seed))
    claims.extend(evaluate_fig10(samples=samples, seed=seed))
    claims.extend(evaluate_fig11(samples=samples, seed=seed))
    return claims


def render_scorecard(claims: list[Claim]) -> str:
    """The scorecard as printable text."""
    lines = ["Reproduction scorecard (shape claims, freshly evaluated):"]
    lines.extend(f"  {claim.render()}" for claim in claims)
    passed = sum(claim.holds for claim in claims)
    lines.append(f"  -- {passed}/{len(claims)} claims hold")
    return "\n".join(lines)
