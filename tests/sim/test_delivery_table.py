"""The delivery table every plane reports.

``DataPlaneReport.deliveries`` is a read-only mapping over per-row
columns.  On the benchmark-shaped forest it must be the
``{(stream, node): DeliveryStats}`` dict the planes built before the
table — same pairs in the same order, same values — for all three
planes, and answer every mapping question that dict answered.  A kept
report must also cost the garbage collector a fixed number of objects,
however many receivers it covers.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro import make_builder, quick_problem, quick_session
from repro.session.streams import StreamId
from repro.sim.dataplane import DeliveryStats, DeliveryTable, make_dataplane
from repro.util.rng import RngStream

ROOT = Path(__file__).resolve().parents[2]

#: sha256 of ``repr`` of the delivery dict each segment of the benchmark's
#: dissemination workload built at seed 7 (call 0 of each segment), as
#: the planes reported it when it was a plain dict of per-pair objects.
BUILT_BEFORE = {
    "fast": "ced1b25c9b49f2a39c4471964ff1f50783296639f58320828d5ee6f7c6b034aa",
    "fast_short": "fa02f3442e36be0066c894c08e3242a4e19acd4d62a2dca5feb0c2ef175903ca",
    "sampled": "1277a7b070cd0729855f966e05db1b2e7bcf68cc9242f242a8c1461ec1be2472",
    "event": "698a666294875e4f1b96d3a6a330731d3601a744426df2d75375373a68e4911d",
}


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def segment_reports():
    """One report per benchmark segment on the seed-7 benchmark forest."""
    workloads = _workloads()
    demand = workloads.DenseDemand(7, workloads.SIZES["full"]["dissemination"])
    demand.system.run_control_round(
        RngStream(7, label="bench/dense/build").spawn("round-0")
    )
    forest = demand.system.last_result.forest
    return {
        name: make_dataplane(
            demand.session,
            forest,
            RngStream(7, label=f"bench/dissemination/{name}/0"),
            latency_bound_ms=workloads.LATENCY_BOUND_MS,
            **knobs,
        ).run(capture_ms)
        for name, (capture_ms, knobs) in workloads.SEGMENTS.items()
    }


@pytest.mark.parametrize("name", sorted(BUILT_BEFORE))
def test_table_is_the_dict_the_planes_built(segment_reports, name):
    table = segment_reports[name].deliveries
    as_dict = dict(table.items())
    assert hashlib.sha256(repr(as_dict).encode()).hexdigest() == BUILT_BEFORE[name]
    assert len(table) == len(as_dict) == len(table.items()) == len(table.values())
    assert list(table) == list(table.keys()) == list(as_dict)
    assert list(table.values()) == list(as_dict.values())
    assert all(isinstance(stats, DeliveryStats) for stats in table.values())
    for key, stats in as_dict.items():
        assert key in table and table[key] == stats and table.get(key) == stats
        assert (key, stats) in table.items()
    assert table == as_dict and as_dict == table


def test_absent_pairs_and_the_empty_table(segment_reports):
    table = segment_reports["fast"].deliveries
    stream, node = next(iter(table))
    for absent in ((stream, -1), (StreamId(stream.site, 999), node), "x", None):
        assert absent not in table
        assert table.get(absent) is None
        with pytest.raises(KeyError):
            table[absent]
    empty = DeliveryTable([], [], [], [], [])
    assert empty == {} and {} == empty and not empty and len(empty) == 0
    assert list(empty.items()) == list(empty.values()) == []


def test_stats_are_immutable_values(segment_reports):
    table = segment_reports["fast"].deliveries
    stats = next(iter(table.values()))
    with pytest.raises(AttributeError):
        stats.frames = 0
    assert DeliveryStats() == (0, 0.0, 0.0)


def _tracked_objects(report) -> int:
    """GC-tracked objects a report keeps alive, the trees' stream ids aside."""
    seen: set[int] = set()
    stack = [report]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, StreamId)) or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


@pytest.mark.parametrize(
    "knobs",
    ({}, {"plane": "sampled", "jitter_ms": 5.0, "loss_probability": 0.2},
     {"plane": "event"}),
    ids=("fast", "sampled", "event"),
)
def test_a_report_is_a_fixed_number_of_tracked_objects(knobs):
    counts, receivers = set(), set()
    for n_sites in (4, 8):
        rng = RngStream(3)
        session = quick_session(n_sites=n_sites, rng=rng)
        problem = quick_problem(session, rng=rng)
        forest = make_builder("rj").build(problem, rng.spawn("build")).forest
        report = make_dataplane(session, forest, RngStream(1), **knobs).run(300.0)
        receivers.add(len(report.deliveries))
        counts.add(_tracked_objects(report))
    assert len(receivers) == 2
    assert len(counts) == 1, counts
