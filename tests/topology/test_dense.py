"""Tests for the dense cost matrix and its topology/session threading."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology.backbone import load_backbone
from repro.topology.dense import DenseCostMatrix
from tests.reference_paths import pairwise_costs


def is_symmetric(matrix: DenseCostMatrix, tolerance: float = 0.0) -> bool:
    """True when ``cost(a, b)`` and ``cost(b, a)`` agree within ``tolerance``."""
    return all(
        abs(matrix.edge_cost(a, b) - matrix.edge_cost(b, a)) <= tolerance
        for a in range(len(matrix))
        for b in range(a + 1, len(matrix))
    )


@pytest.fixture(scope="module")
def abilene():
    return load_backbone("abilene")


class TestDenseCostMatrix:
    def test_row_and_column_views(self):
        matrix = DenseCostMatrix([[0.0, 1.0], [3.0, 0.0]])
        assert matrix.row(1) == [3.0, 0.0]
        assert matrix.column(1) == [1.0, 0.0]

    def test_set_cost_invalidates_transpose(self):
        matrix = DenseCostMatrix([[0.0, 1.0], [3.0, 0.0]])
        assert matrix.column(0) == [0.0, 3.0]
        matrix.set_cost(1, 0, 9.0)
        assert matrix.column(0) == [0.0, 9.0]
        assert matrix.edge_cost(1, 0) == 9.0

    def test_set_cost_patches_transpose_in_place(self):
        # Regression: set_cost used to drop the lazy transpose, so any
        # caller holding a column view kept reading the stale cost and
        # the next column() call re-paid the O(N²) rebuild.
        matrix = DenseCostMatrix([[0.0, 1.0], [3.0, 0.0]])
        column = matrix.column(0)
        matrix.set_cost(1, 0, 9.0)
        assert matrix.column(0) is column  # patched, not rebuilt
        assert column == [0.0, 9.0]

    def test_backend_is_not_a_constructor_parameter(self):
        with pytest.raises(TypeError):
            DenseCostMatrix([[0.0]], backend="numpy")

    def test_symmetry_check(self):
        assert is_symmetric(DenseCostMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert not is_symmetric(DenseCostMatrix([[0.0, 1.0], [2.0, 0.0]]))

    def test_labels(self):
        matrix = DenseCostMatrix([[0.0, 5.0], [5.0, 0.0]], labels=["a", "b"])
        assert matrix.labels == ["a", "b"]
        with pytest.raises(TopologyError):
            DenseCostMatrix([[0.0]], labels=["a", "b"])

    def test_ragged_rows_rejected(self):
        with pytest.raises(TopologyError):
            DenseCostMatrix([[0.0, 1.0], [1.0]])


class TestTopologyDenseMatrix:
    def test_matches_nested_cost_matrix(self, abilene):
        pops = abilene.pop_ids[:5]
        nested = pairwise_costs(abilene, pops)
        dense = abilene.dense_cost_matrix(pops)
        # Dijkstra sums a path's edges in opposite orders for the two
        # directions, so APSP symmetry only holds to float tolerance.
        assert is_symmetric(dense, tolerance=1e-9)
        for i, a in enumerate(pops):
            for j, b in enumerate(pops):
                assert dense.edge_cost(i, j) == nested[a][b]

    def test_unknown_pop_rejected(self, abilene):
        with pytest.raises(TopologyError):
            abilene.dense_cost_matrix(["nowhere"])


class TestShortestCostsCaching:
    def test_cache_hit_returns_same_mapping(self, abilene):
        src = abilene.pop_ids[0]
        first = abilene.shortest_costs_from(src)
        second = abilene.shortest_costs_from(src)
        # Both views must be backed by the same cached row (no copying).
        assert dict(first) == dict(second)
        assert first[src] == 0.0

    def test_returned_row_is_read_only(self, abilene):
        src = abilene.pop_ids[0]
        costs = abilene.shortest_costs_from(src)
        with pytest.raises(TypeError):
            costs[src] = 123.0  # type: ignore[index]

    def test_mutable_copy_still_available(self, abilene):
        src = abilene.pop_ids[0]
        copy = dict(abilene.shortest_costs_from(src))
        copy[src] = 99.0  # fine: it is a copy
        assert abilene.shortest_costs_from(src)[src] == 0.0


class TestSessionDenseMatrix:
    def test_session_exposes_dense_costs(self, small_session):
        dense = small_session.dense_cost_matrix()
        assert len(dense) == small_session.n_sites
        for a in range(small_session.n_sites):
            for b in range(small_session.n_sites):
                assert dense.edge_cost(a, b) == small_session.cost_ms(a, b)

    def test_problem_rows_and_columns(self, small_problem):
        n = small_problem.n_nodes
        for a in range(n):
            row = small_problem.dense_cost_matrix().row(a)
            col = small_problem.costs_to(a)
            for b in range(n):
                assert row[b] == small_problem.edge_cost(a, b)
                assert col[b] == small_problem.edge_cost(b, a)

    def test_problem_set_cost_reaches_rows_and_columns(self, small_problem):
        small_problem.set_cost(0, 1, 55.5)
        assert small_problem.edge_cost(0, 1) == 55.5
        assert small_problem.costs_to(1)[0] == 55.5
        assert small_problem.dense_cost_matrix().row(0)[1] == 55.5
