"""Tests for churn / rebuild experiments."""

from __future__ import annotations

import pytest

from repro.core.problem import ForestProblem
from repro.core.randomized import RandomJoinBuilder
from repro.sim.churn import problem_without_site, rebuild_after_leave
from repro.workload.coverage import CoverageWorkloadModel
from tests.conftest import in_degree, out_degree


@pytest.fixture
def workload(small_session, rng):
    return CoverageWorkloadModel(interest=0.3).generate(
        small_session, rng.spawn("wl")
    )


class TestProblemWithoutSite:
    def test_site_fully_removed(self, small_session, workload):
        problem = ForestProblem.from_workload(small_session, workload, 200.0)
        reduced = problem_without_site(problem, 1)
        assert reduced.inbound_limit(1) == 0
        assert reduced.outbound_limit(1) == 0
        for group in reduced.groups:
            assert group.source != 1
            assert 1 not in group.subscribers

    def test_other_groups_preserved(self, small_session, workload):
        problem = ForestProblem.from_workload(small_session, workload, 200.0)
        reduced = problem_without_site(problem, 1)
        survivors = {
            g.stream for g in problem.groups
            if g.source != 1 and g.subscribers - {1}
        }
        assert {g.stream for g in reduced.groups} == survivors


class TestRebuild:
    def test_report_consistency(self, small_session, workload, rng):
        report, before, after = rebuild_after_leave(
            small_session, workload, 2, RandomJoinBuilder(), rng, 200.0
        )
        before.verify()
        after.verify()
        assert report.leaving_site == 2
        assert report.satisfied_before == len(before.satisfied)
        assert report.satisfied_after == len(after.satisfied)
        assert 0 <= report.disruption_ratio <= 1.0
        assert report.parent_changes <= report.surviving_requests

    def test_leaving_site_absent_after(self, small_session, workload, rng):
        _, _, after = rebuild_after_leave(
            small_session, workload, 0, RandomJoinBuilder(), rng, 200.0
        )
        for request in after.satisfied:
            assert request.subscriber != 0
            assert request.source != 0

    def test_empty_survivors_zero_disruption(self):
        from repro.sim.churn import RebuildReport

        report = RebuildReport(
            leaving_site=0,
            satisfied_before=0,
            satisfied_after=0,
            surviving_requests=0,
            parent_changes=0,
            rejection_ratio_before=0.0,
            rejection_ratio_after=0.0,
        )
        assert report.disruption_ratio == 0.0

    def test_deterministic_given_seed(self, small_session, workload):
        from repro.util.rng import RngStream

        runs = [
            rebuild_after_leave(
                small_session, workload, 1, RandomJoinBuilder(),
                RngStream(77), 200.0,
            )[0]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_rejection_ratios_bounded(self, small_session, workload, rng):
        report, _, _ = rebuild_after_leave(
            small_session, workload, 3, RandomJoinBuilder(), rng, 200.0
        )
        assert 0.0 <= report.rejection_ratio_before <= 1.0
        assert 0.0 <= report.rejection_ratio_after <= 1.0

    def test_departed_site_relays_nothing_after(self, small_session, workload, rng):
        _, _, after = rebuild_after_leave(
            small_session, workload, 2, RandomJoinBuilder(), rng, 200.0
        )
        assert out_degree(after.forest, 2) == 0
        assert in_degree(after.forest, 2) == 0

    def test_rebuilt_overlay_passes_audit(self, small_session, workload, rng):
        from repro.sim.invariants import InvariantAuditor

        _, before, after = rebuild_after_leave(
            small_session, workload, 1, RandomJoinBuilder(), rng, 200.0
        )
        auditor = InvariantAuditor()
        assert auditor.audit_build(before, event="before") == []
        assert auditor.audit_build(after, event="after") == []


class TestProblemDerivation:
    def test_cost_matrix_and_bound_preserved(self, small_session, workload):
        problem = ForestProblem.from_workload(small_session, workload, 200.0)
        reduced = problem_without_site(problem, 1)
        assert reduced.latency_bound_ms == problem.latency_bound_ms
        assert reduced.n_nodes == problem.n_nodes
        for a in range(problem.n_nodes):
            for b in range(problem.n_nodes):
                assert reduced.edge_cost(a, b) == problem.edge_cost(a, b)
        # Costs do not change when a site leaves: no second matrix is built.
        assert reduced.dense_cost_matrix() is problem.dense_cost_matrix()

    def test_other_degree_bounds_untouched(self, small_session, workload):
        problem = ForestProblem.from_workload(small_session, workload, 200.0)
        reduced = problem_without_site(problem, 0)
        for node in range(1, problem.n_nodes):
            assert reduced.inbound_limit(node) == problem.inbound_limit(node)
            assert reduced.outbound_limit(node) == problem.outbound_limit(node)
