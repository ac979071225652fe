"""Integration tests: the full pipeline, end to end."""

from __future__ import annotations

import pytest

from repro import (
    ForestMetrics,
    make_builder,
    quick_problem,
    quick_session,
)
from repro.cli import main
from repro.core.randomized import RandomJoinBuilder
from repro.pubsub.system import PubSubSystem
from repro.sim.dataplane import ForestDataPlane
from repro.util.rng import RngStream
from repro.workload.generator import WorkloadGenerator
from repro.workload.uniform import UniformPopularity
from tests.conftest import next_hops


class TestQuickApi:
    def test_session_problem_build_metrics(self):
        rng = RngStream(21)
        session = quick_session(n_sites=5, rng=rng)
        problem = quick_problem(session, rng=rng, popularity="zipf")
        result = make_builder("rj").build(problem, rng.spawn("build"))
        result.verify()
        metrics = ForestMetrics.of(result)
        assert metrics.total_requests == problem.total_requests()

    def test_heterogeneous_nodes(self):
        rng = RngStream(22)
        session = quick_session(n_sites=4, rng=rng, nodes="heterogeneous")
        limits = {site.rp.inbound_limit for site in session.sites}
        assert limits <= {10, 20, 30}

    def test_bad_arguments(self):
        rng = RngStream(23)
        with pytest.raises(Exception):
            quick_session(n_sites=3, rng=rng, nodes="nonsense")
        session = quick_session(n_sites=3, rng=rng)
        with pytest.raises(Exception):
            quick_problem(session, rng=rng, popularity="nonsense")


class TestControlPlusDataPlane:
    def test_pubsub_round_then_dataplane(self):
        rng = RngStream(31)
        session = quick_session(n_sites=4, rng=rng)
        system = PubSubSystem(
            session=session, builder=RandomJoinBuilder(), latency_bound_ms=150.0
        )
        generator = WorkloadGenerator(
            session=session, popularity=UniformPopularity()
        )
        workload = generator.generate(rng.spawn("wl"))
        for site in session.sites:
            streams = list(workload.streams_of(site.index))
            if streams:
                system.subscribe_display(
                    site.index, site.displays[0].display_id, streams
                )
        directive = system.run_control_round(rng.spawn("round"))
        assert directive.epoch == 1
        result = system.last_result
        result.verify()

        plane = ForestDataPlane(
            session, result.forest, rng.spawn("dp"), latency_bound_ms=150.0
        )
        report = plane.run(duration_ms=400.0)
        assert report.bound_violations() == 0
        # every satisfied subscription actually receives media
        for request in result.satisfied:
            assert (request.stream, request.subscriber) in report.deliveries

    def test_forwarding_tables_match_forest(self):
        rng = RngStream(32)
        session = quick_session(n_sites=4, rng=rng)
        system = PubSubSystem(session=session, builder=RandomJoinBuilder())
        workload = WorkloadGenerator(
            session=session, popularity=UniformPopularity()
        ).generate(rng.spawn("wl"))
        for site in session.sites:
            streams = list(workload.streams_of(site.index))
            if streams:
                system.subscribe_display(
                    site.index, site.displays[0].display_id, streams
                )
        system.run_control_round(rng.spawn("round"))
        forest = system.last_result.forest
        for stream, tree in forest.trees.items():
            for parent, child in tree.edges():
                assert child in next_hops(system.rps[parent], stream)


class TestCli:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--sites", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "data plane" in out

    def test_fig8_tiny(self, capsys):
        code = main(
            ["fig8", "--workload", "random", "--nodes", "uniform",
             "--samples", "2", "--no-plot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "rj" in out

    def test_fig9_tiny(self, capsys):
        assert main(["fig9", "--samples", "2", "--no-plot"]) == 0
        assert "granularity" in capsys.readouterr().out

    def test_fig10_tiny(self, capsys):
        assert main(["fig10", "--samples", "2", "--no-plot"]) == 0
        assert "utilization" in capsys.readouterr().out

    def test_fig11_tiny(self, capsys):
        assert main(["fig11", "--samples", "2", "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "co-rj" in out and "improvement" in out
