"""Control-convergence sweep: directive settle time vs control-link delay.

The event-driven control plane (:mod:`repro.pubsub.service`) makes
control latency a first-class quantity: each round's *convergence* is
the time from the dirty message that triggered it to the last
:class:`~repro.pubsub.messages.DirectiveAck`.  This harness replays one
named scenario across a range of one-way control-link delays (fixed
debounce window) and reports, per delay point, the mean/max convergence
latency, how many rounds the debounce coalesced events into, and how
many rounds overlapped a still-converging predecessor — the regime the
paper's synchronous model cannot express.

CLI::

    tele3d convergence --scenario flash-crowd --delays 0,20,50,100
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.runner import SeriesResult
from repro.scenarios.library import get_scenario
from repro.scenarios.runtime import ScenarioReport, ScenarioRuntime

#: Default one-way control-link delays to sweep (milliseconds).
DEFAULT_DELAYS = (0.0, 20.0, 50.0, 100.0)


def async_report(
    scenario: str,
    sites: int,
    seed: int,
    control_delay_ms: float,
    debounce_ms: float,
    audit: bool = False,
) -> ScenarioReport:
    """Run one named scenario through the event-driven control plane."""
    spec = replace(
        get_scenario(scenario, sites=sites, seed=seed),
        async_control=True,
        control_delay_ms=control_delay_ms,
        debounce_ms=debounce_ms,
    )
    return ScenarioRuntime(spec, audit=audit).run()


def run_convergence(
    scenario: str = "flash-crowd",
    delays: Sequence[float] = DEFAULT_DELAYS,
    sites: int = 8,
    seed: int = 7,
    debounce_ms: float = 10.0,
    audit: bool = False,
) -> SeriesResult:
    """Sweep convergence latency across control-link delays.

    Every delay point replays the *same* compiled scenario (same seed,
    same event schedule), so the comparison is paired: only the control
    links slow down.  Alongside the latency series, ``rounds`` shows the
    debounce coalescing events (fewer rounds than events once the window
    spans several arrivals) and ``overlapping-rounds`` counts rounds
    triggered while their predecessor was still propagating.
    """
    result = SeriesResult(xs=list(delays))
    for delay in delays:
        report = async_report(
            scenario,
            sites=sites,
            seed=seed,
            control_delay_ms=delay,
            debounce_ms=debounce_ms,
            audit=audit,
        )
        result.add_point("mean-convergence-ms", report.mean_convergence_ms)
        result.add_point("max-convergence-ms", report.max_convergence_ms)
        result.add_point("rounds", float(report.rounds))
        result.add_point("overlapping-rounds", float(report.overlapping_rounds))
        result.add_point("stale-directives", float(report.control.stale_directives))
    return result
