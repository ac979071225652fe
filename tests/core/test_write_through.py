"""Problem-table setters: visibility and round isolation.

A :class:`ForestProblem` keeps one representation of each table — the
dense cost matrix and two bound lists — and the only writes are
``set_cost`` / ``set_inbound_limit`` / ``set_outbound_limit``.  These
tests pin what the hot paths rely on: an edit is visible through row and
column lists already handed out and to the next parent scan, an evolved
problem's bound edit never reaches the round it was evolved from, and
bad edits are refused naming the node.  Everything runs on both array backends.
"""

from __future__ import annotations

import math

import pytest

from repro.core.backend import numpy_available
from repro.core.forest import OverlayForest
from repro.core.problem import ForestProblem
from repro.core.state import BuilderState
from repro.errors import ConfigurationError
from repro.session.capacity import UniformCapacityModel
from repro.session.session import SessionConfig, build_session
from repro.util.rng import RngStream
from repro.workload.coverage import CoverageWorkloadModel
from tests.reference_paths import use_array_backend

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not importable"
)

BACKENDS = ["python", pytest.param("numpy", marks=needs_numpy)]


@pytest.fixture(params=BACKENDS)
def backend(request):
    with use_array_backend(request.param) as pinned:
        yield pinned


@pytest.fixture
def session(tier1_topology, backend):
    return build_session(
        tier1_topology,
        UniformCapacityModel(streams_per_site=6),
        RngStream(7, label="session"),
        SessionConfig(n_sites=5, displays_per_site=2),
    )


@pytest.fixture
def workload(session):
    return CoverageWorkloadModel(interest=0.3).generate(
        session, RngStream(11, label="workload")
    )


@pytest.fixture
def problem(session, workload):
    return ForestProblem.from_workload(session, workload, 200.0)


class TestSetCost:
    def test_visible_through_held_row_and_column(self, problem):
        row = problem.dense_cost_matrix().row(0)
        column = problem.costs_to(1)
        problem.set_cost(0, 1, 55.5)
        assert problem.edge_cost(0, 1) == 55.5
        assert row[1] == 55.5
        assert column[0] == 55.5
        assert problem.dense_cost_matrix().row(0) is row
        assert problem.costs_to(1) is column

    def test_one_direction_only(self, problem):
        before = problem.edge_cost(3, 2)
        problem.set_cost(2, 3, 41.25)
        assert problem.edge_cost(2, 3) == 41.25
        assert problem.edge_cost(3, 2) == before

    def test_shared_with_evolved_rounds_not_with_the_session(
        self, session, problem, workload
    ):
        evolved = ForestProblem.evolve(problem, workload)
        before = session.cost_ms(0, 1)
        evolved.set_cost(0, 1, before + 10.0)
        assert problem.edge_cost(0, 1) == before + 10.0
        assert session.cost_ms(0, 1) == before

    def test_infinite_cost_is_legal(self, problem):
        problem.set_cost(0, 1, math.inf)
        assert problem.edge_cost(0, 1) == math.inf

    @pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf])
    def test_bad_value_refused(self, problem, value):
        before = problem.edge_cost(0, 1)
        with pytest.raises(ConfigurationError, match="0->1"):
            problem.set_cost(0, 1, value)
        assert problem.edge_cost(0, 1) == before

    @pytest.mark.parametrize("node", [999, -1, "bogus", 1.0])
    def test_unknown_node_refused(self, problem, node):
        with pytest.raises(ConfigurationError, match="unknown node"):
            problem.set_cost(0, node, 1.0)
        with pytest.raises(ConfigurationError, match="unknown node"):
            problem.set_cost(node, 0, 1.0)


class TestSetLimits:
    def test_visible_through_held_list_and_builder_state(self, problem):
        held = problem.outbound_limits()
        state = BuilderState(problem)
        problem.set_outbound_limit(2, 0)
        problem.set_inbound_limit(1, 0)
        assert problem.outbound_limit(2) == 0
        assert held[2] == 0
        assert problem.outbound_limits() is held
        assert not state.outbound_free(2)
        assert not state.inbound_free(1)

    @pytest.mark.parametrize("value", [-1, 1.5, None])
    def test_bad_value_refused(self, problem, value):
        before = problem.inbound_limit(1), problem.outbound_limit(1)
        with pytest.raises(ConfigurationError, match="node 1"):
            problem.set_inbound_limit(1, value)
        with pytest.raises(ConfigurationError, match="node 1"):
            problem.set_outbound_limit(1, value)
        assert (problem.inbound_limit(1), problem.outbound_limit(1)) == before

    @pytest.mark.parametrize("node", [999, -1, "bogus", 1.0])
    def test_unknown_node_refused(self, problem, node):
        with pytest.raises(ConfigurationError, match="unknown node"):
            problem.set_inbound_limit(node, 3)
        with pytest.raises(ConfigurationError, match="unknown node"):
            problem.set_outbound_limit(node, 3)


class TestEvolvedBoundsAreIsolated:
    def test_round_t_write_does_not_reach_round_t_minus_1(
        self, problem, workload
    ):
        evolved = ForestProblem.evolve(problem, workload)
        assert evolved.inbound_limits() == problem.inbound_limits()
        assert evolved.inbound_limits() is not problem.inbound_limits()
        assert evolved.outbound_limits() is not problem.outbound_limits()
        before_in = problem.inbound_limit(1)
        before_out = problem.outbound_limit(3)
        evolved.set_inbound_limit(1, 0)
        evolved.set_outbound_limit(3, 0)
        assert evolved.inbound_limit(1) == 0
        assert evolved.outbound_limit(3) == 0
        assert problem.inbound_limit(1) == before_in
        assert problem.outbound_limit(3) == before_out

    def test_ancestor_write_does_not_reach_the_evolved_round(
        self, problem, workload
    ):
        evolved = ForestProblem.evolve(problem, workload)
        before = evolved.inbound_limit(0)
        problem.set_inbound_limit(0, before + 7)
        assert problem.inbound_limit(0) == before + 7
        assert evolved.inbound_limit(0) == before

    def test_chained_evolution_isolates_every_ancestor(
        self, problem, workload
    ):
        round1 = ForestProblem.evolve(problem, workload)
        round2 = ForestProblem.evolve(round1, workload)
        before = problem.inbound_limit(1)
        round2.set_inbound_limit(1, 0)
        assert round1.inbound_limit(1) == before
        assert problem.inbound_limit(1) == before


class TestParentScanReadsTheTables:
    """The parent scan reads the live tables: an edit counts from the next
    scan on, in its own round only."""

    def _source_join(self, problem):
        """An undisseminated tree and a subscriber its source can serve."""
        stream = problem.groups[0].stream
        tree = OverlayForest().tree(stream)
        subscriber = next(
            node
            for node in range(problem.n_nodes)
            if node != tree.source
            and problem.edge_cost(tree.source, node) < problem.latency_bound_ms
        )
        return tree, subscriber

    def _parent(self, problem, tree, subscriber):
        state = BuilderState(problem)
        return problem.array_backend.parent_scan(problem, state, tree, subscriber)

    def test_edits_reach_the_next_scan(self, problem):
        tree, subscriber = self._source_join(problem)
        source, limit = tree.source, problem.outbound_limit(tree.source)
        assert self._parent(problem, tree, subscriber) == source
        problem.set_outbound_limit(source, 0)
        assert self._parent(problem, tree, subscriber) is None
        problem.set_outbound_limit(source, limit)
        problem.set_cost(source, subscriber, math.inf)
        assert self._parent(problem, tree, subscriber) is None

    def test_evolved_edit_leaves_the_ancestors_scan(self, problem, workload):
        tree, subscriber = self._source_join(problem)
        evolved = ForestProblem.evolve(problem, workload)
        evolved.set_outbound_limit(tree.source, 0)
        assert self._parent(evolved, tree, subscriber) is None
        assert self._parent(problem, tree, subscriber) == tree.source

    def test_ancestor_edit_leaves_the_evolved_scan(self, problem, workload):
        tree, subscriber = self._source_join(problem)
        evolved = ForestProblem.evolve(problem, workload)
        problem.set_outbound_limit(tree.source, 0)
        assert self._parent(problem, tree, subscriber) is None
        assert self._parent(evolved, tree, subscriber) == tree.source

