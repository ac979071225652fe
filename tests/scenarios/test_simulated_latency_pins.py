"""Simulated convergence and detection latencies, pinned by equality.

Both are *simulated* milliseconds, a deterministic function of
(scenario, seed, N), so any change to them is a behaviour change and is
pinned with ``==``, never with a tolerance:

* control convergence — a small FOV-churn scenario through the
  event-driven service (control delay 20 ms, debounce 10 ms), on a quiet
  link and on a 20%-lossy one with 5 ms jitter and retransmission armed:
  the total last-ack-minus-trigger latency and the converged rounds;
* failure detection — ``heartbeat-rolling-failure`` under the static
  deadline and under φ-accrual at threshold 8, on a quiet link and on
  the scenario's native 20% loss: the mean latency from a failed site's
  last beat to its suspicion and the failures detected.

Seed 42 at N = 16 and 32 on ``synthetic-N`` backbones.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.scenarios.library import get_scenario
from repro.scenarios.runtime import ScenarioRuntime
from repro.scenarios.spec import EventKind, SchedulePhase, ScenarioSpec

SEED = 42

#: (N, link) -> (convergence_total_ms, convergence_rounds)
CONVERGENCE = {
    (16, "quiet"): (200.0, 4),
    (16, "lossy"): (2486.6594762428062, 6),
    (32, "quiet"): (200.0, 4),
    (32, "lossy"): (4149.400981869833, 7),
}

#: (N, detector, link) -> (mean_detection_ms, detected_failures)
DETECTION = {
    (16, "static", "quiet"): (142.27766838598077, 6),
    (16, "static", "lossy"): (135.4649383002313, 8),
    (16, "phi", "quiet"): (101.861736713303, 7),
    (16, "phi", "lossy"): (122.27766838598076, 9),
    (32, "static", "quiet"): (133.16694622064827, 12),
    (32, "static", "lossy"): (123.16694622064831, 13),
    (32, "phi", "quiet"): (109.2082305151657, 16),
    (32, "phi", "lossy"): (144.21389055500197, 18),
}


def convergence_spec(n_sites: int, link: str) -> ScenarioSpec:
    spec = ScenarioSpec(
        name="convergence-pin",
        n_sites=n_sites,
        initial_active=n_sites,
        duration_ms=400.0,
        seed=SEED,
        schedule=(SchedulePhase(EventKind.FOV_CHANGE, 0.0, 350.0, 4),),
        backbone=f"synthetic-{n_sites}",
        displays_per_site=1,
        fov_size=2,
        async_control=True,
        control_delay_ms=20.0,
        debounce_ms=10.0,
    )
    if link == "lossy":
        spec = replace(
            spec, loss_rate=0.2, jitter_ms=5.0, retransmit_timeout_ms=60.0
        )
    return spec


def detection_spec(n_sites: int, detector: str, link: str) -> ScenarioSpec:
    spec = replace(
        get_scenario("heartbeat-rolling-failure", sites=n_sites, seed=SEED),
        backbone=f"synthetic-{n_sites}",
    )
    if link == "quiet":
        spec = replace(spec, loss_rate=0.0)
    if detector == "phi":
        spec = replace(spec, phi_threshold=8.0)
    return spec


@pytest.mark.parametrize("key", sorted(CONVERGENCE))
def test_convergence_latency(key):
    report = ScenarioRuntime(convergence_spec(*key), audit=False).run()
    assert (
        report.convergence_total_ms,
        report.convergence_rounds,
    ) == CONVERGENCE[key]


@pytest.mark.parametrize("key", sorted(DETECTION))
def test_detection_latency(key):
    report = ScenarioRuntime(detection_spec(*key), audit=False).run()
    assert (
        report.mean_detection_ms,
        report.detected_failures,
    ) == DETECTION[key]


@pytest.mark.parametrize("n_sites", (16, 32))
def test_phi_detects_no_later_than_static_on_a_quiet_link(n_sites):
    # The pins above hold these to the live runs.
    phi_ms, _ = DETECTION[(n_sites, "phi", "quiet")]
    static_ms, _ = DETECTION[(n_sites, "static", "quiet")]
    assert phi_ms <= static_ms
