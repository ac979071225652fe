"""Tests for the ``BuildResult.u_hat`` cache and its invalidation."""

from __future__ import annotations

from repro.core.correlation import CorrelatedRandomJoinBuilder
from repro.core.incremental import IncrementalRepairer
from repro.core.problem import ForestProblem
from repro.core.randomized import RandomJoinBuilder
from repro.session.streams import StreamId
from repro.util.rng import RngStream
from tests.conftest import complete_cost


def starved_problem() -> ForestProblem:
    """Three nodes, zero outbound at the source: everything gets rejected."""
    return ForestProblem.from_tables(
        cost=complete_cost(3, off_diagonal=1.0),
        inbound={0: 5, 1: 5, 2: 5},
        outbound={0: 0, 1: 5, 2: 5},
        group_members={StreamId(0, 0): {1, 2}},
        latency_bound_ms=10.0,
    )


class TestUHatCache:
    def test_u_hat_matches_matrix(self, rng):
        result = RandomJoinBuilder().build(starved_problem(), rng)
        assert result.u_hat(1, 0) == 1
        assert result.u_hat(2, 0) == 1
        assert result.u_hat(1, 2) == 0
        assert result.u_hat_matrix() == {1: {0: 1}, 2: {0: 1}}

    def test_matrix_is_cached(self, rng):
        result = RandomJoinBuilder().build(starved_problem(), rng)
        assert result.u_hat_matrix() is result.u_hat_matrix()

    def test_invalidate_recomputes(self, rng):
        result = RandomJoinBuilder().build(starved_problem(), rng)
        first = result.u_hat_matrix()
        result.invalidate_caches()
        second = result.u_hat_matrix()
        assert first is not second
        assert first == second

    def test_incremental_join_invalidates(self, rng):
        """A round's repair join shows in the repaired result's û while
        the previous result keeps the rejection it cached."""
        previous = RandomJoinBuilder().build(starved_problem(), rng)
        assert previous.u_hat(1, 0) == 1  # cache primed while rejected
        # Lift the source's outbound bound; the repair retries the join.
        lifted = ForestProblem.from_tables(
            cost=complete_cost(3, off_diagonal=1.0),
            inbound={0: 5, 1: 5, 2: 5},
            outbound={0: 5, 1: 5, 2: 5},
            group_members={StreamId(0, 0): {1, 2}},
            latency_bound_ms=10.0,
        )
        repair = IncrementalRepairer().repair(previous, lifted)
        assert repair.fresh_joined == 2
        assert repair.result.u_hat(1, 0) == 0
        assert previous.u_hat(1, 0) == 1

    def test_corj_repair_invalidates(self):
        """CO-RJ's repair sweeps mutate the rejected list post-build."""
        rng = RngStream(77, label="corj-cache")
        from repro.session.capacity import UniformCapacityModel
        from repro.session.session import SessionConfig, build_session
        from repro.topology.backbone import load_backbone
        from repro.workload.coverage import CoverageWorkloadModel

        session = build_session(
            load_backbone("abilene"),
            UniformCapacityModel(base=4, jitter=1, streams_per_site=4),
            rng.spawn("session"),
            SessionConfig(n_sites=6),
        )
        workload = CoverageWorkloadModel(interest=0.6).generate(
            session, rng.spawn("workload")
        )
        problem = ForestProblem.from_workload(session, workload, 120.0)
        result = CorrelatedRandomJoinBuilder().build(problem, rng.spawn("build"))
        # The cache (whenever it was primed) must agree with a fresh scan.
        fresh: dict[int, dict[int, int]] = {}
        for request, _ in result.rejected:
            row = fresh.setdefault(request.subscriber, {})
            row[request.source] = row.get(request.source, 0) + 1
        assert result.u_hat_matrix() == fresh
