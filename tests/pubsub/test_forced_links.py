"""The test-side link impairments (``tests/forced_links.py``), checked
against the service's own delivery callbacks."""

from __future__ import annotations

from collections import Counter

from repro.scenarios.library import get_scenario
from repro.scenarios.runtime import ScenarioRuntime
from tests.forced_links import force_drops

#: Every wire kind the membership service sends.
KINDS = {
    "advertise", "subscribe", "withdraw", "control-ack", "heartbeat",
    "heartbeat-ack", "rejoin", "directive", "directive-ack",
}


def observed_run() -> tuple[ScenarioRuntime, Counter]:
    """A run that sends every kind: partitions, an outage and churn."""
    runtime = ScenarioRuntime(
        get_scenario("server-crash-partition-overlap", sites=8, seed=7)
    )
    kinds: Counter = Counter()
    force_drops(
        runtime.service.link, lambda kind, attempt, args: kinds.update([kind])
    )
    runtime.run()
    return runtime, kinds


def test_every_callback_has_its_wire_kind():
    _, kinds = observed_run()
    assert set(kinds) == KINDS


def test_a_predicate_that_picks_nothing_moves_nothing():
    plain = ScenarioRuntime(
        get_scenario("server-crash-partition-overlap", sites=8, seed=7)
    )
    plain.run()
    observed, kinds = observed_run()
    assert sum(kinds.values()) == observed.service.link.sent == plain.service.link.sent
    assert observed.report.audit.digest == plain.report.audit.digest
    assert observed.service.link.dropped == plain.service.link.dropped
