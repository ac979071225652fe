"""The control counts are declared once, on :class:`ControlCounts`.

The service counts into one :class:`ControlCounts` and the scenario
report carries a copy of it, so no count is written down twice.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, fields

import pytest

from repro.pubsub.service import ControlCounts
from repro.scenarios import ScenarioRuntime, get_scenario
from repro.scenarios.runtime import ScenarioReport

COUNTS = [f.name for f in fields(ControlCounts)]


def test_every_count_has_one_meaning_line():
    lines = [line.strip() for line in inspect.getsource(ControlCounts).splitlines()]
    for name in COUNTS:
        index = lines.index(f"{name}: int = 0")
        assert lines[index - 1].startswith("#: "), name
        assert not lines[index - 2].startswith("#:"), name


def test_no_report_field_repeats_a_count():
    assert not set(COUNTS) & {f.name for f in fields(ScenarioReport)}


@pytest.mark.parametrize("name", ("lossy-flash-crowd", "server-crash-flash-crowd"))
def test_the_report_carries_the_service_counts(name):
    runtime = ScenarioRuntime(get_scenario(name, sites=8, seed=7))
    report = runtime.run()
    assert report.control == runtime.service.counts
    assert all(value >= 0 for value in asdict(report.control).values())
