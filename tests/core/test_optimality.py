"""Heuristic quality against brute-force optima on tiny instances.

The forest construction problem is NP-complete, but for tiny instances
(≤ 4 nodes, ≤ 6 requests) the optimum — the maximum number of
satisfiable requests — can be found by exhaustive search over join
orders *and* parent choices.  These tests pin two facts:

* no heuristic ever satisfies more requests than the optimum (sanity
  of the brute force and of `verify()`),
* on ample-capacity instances every heuristic IS optimal, and on
  constrained instances RJ stays within a bounded factor of optimal.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.forest import MulticastTree
from repro.core.model import SubscriptionRequest
from repro.core.problem import ForestProblem
from repro.core.registry import available_algorithms, make_builder
from repro.session.streams import StreamId
from repro.util.rng import RngStream
from tests.conftest import complete_cost, members


def optimal_satisfied(problem: ForestProblem) -> int:
    """Maximum satisfiable requests, by exhaustive search.

    Enumerates every request order; for each order, branches over every
    feasible parent (and the skip option) with plain degree/latency
    feasibility — no reservations, no policy — and returns the best
    count found.  Exponential: use only on tiny instances.
    """
    requests = problem.all_requests()

    best = 0

    def recurse(order: tuple[SubscriptionRequest, ...], index: int,
                trees: dict, din: dict, dout: dict, satisfied: int) -> None:
        nonlocal best
        remaining = len(order) - index
        if satisfied + remaining <= best:
            return  # cannot beat the incumbent
        if index == len(order):
            best = max(best, satisfied)
            return
        request = order[index]
        tree = trees.setdefault(request.stream, MulticastTree(request.stream))
        # Option: skip this request.
        recurse(order, index + 1, trees, din, dout, satisfied)
        if din[request.subscriber] >= problem.inbound_limit(request.subscriber):
            return
        for member in members(tree):
            if dout[member] >= problem.outbound_limit(member):
                continue
            edge = problem.edge_cost(member, request.subscriber)
            path = tree.cost_from_source(member) + edge
            if path >= problem.latency_bound_ms:
                continue
            tree.attach(member, request.subscriber, edge)
            din[request.subscriber] += 1
            dout[member] += 1
            recurse(order, index + 1, trees, din, dout, satisfied + 1)
            dout[member] -= 1
            din[request.subscriber] -= 1
            tree.detach_leaf(request.subscriber)

    for order in itertools.permutations(requests):
        recurse(
            order,
            0,
            {},
            {i: 0 for i in range(problem.n_nodes)},
            {i: 0 for i in range(problem.n_nodes)},
            0,
        )
        if best == len(requests):
            break  # everything satisfiable; no better order exists
    return best


def tiny_instances() -> list[ForestProblem]:
    """Hand-picked tiny instances spanning the three constraint modes."""
    return [
        # Ample capacity: everything satisfiable.
        ForestProblem.from_tables(
            cost=complete_cost(3),
            inbound={i: 5 for i in range(3)},
            outbound={i: 5 for i in range(3)},
            group_members={StreamId(0, 0): {1, 2}, StreamId(1, 0): {0, 2}},
            latency_bound_ms=10.0,
        ),
        # Outbound-starved source: relaying is mandatory.
        ForestProblem.from_tables(
            cost=complete_cost(4),
            inbound={i: 5 for i in range(4)},
            outbound={0: 1, 1: 2, 2: 2, 3: 2},
            group_members={StreamId(0, 0): {1, 2, 3}},
            latency_bound_ms=10.0,
        ),
        # Latency-starved: two-hop paths infeasible for the far node.
        ForestProblem.from_tables(
            cost={
                0: {0: 0.0, 1: 4.0, 2: 7.0},
                1: {0: 4.0, 1: 0.0, 2: 7.0},
                2: {0: 7.0, 1: 7.0, 2: 0.0},
            },
            inbound={i: 5 for i in range(3)},
            outbound={0: 1, 1: 5, 2: 5},
            group_members={StreamId(0, 0): {1, 2}},
            latency_bound_ms=8.0,
        ),
        # Inbound-starved subscriber.
        ForestProblem.from_tables(
            cost=complete_cost(3),
            inbound={0: 5, 1: 1, 2: 5},
            outbound={i: 5 for i in range(3)},
            group_members={
                StreamId(0, 0): {1, 2},
                StreamId(0, 1): {1},
                StreamId(2, 0): {1},
            },
            latency_bound_ms=10.0,
        ),
    ]


class TestBruteForce:
    def test_ample_instance_fully_satisfiable(self):
        problem = tiny_instances()[0]
        assert optimal_satisfied(problem) == problem.total_requests()

    def test_outbound_starved_optimum(self):
        # Source sends once; the rest must chain through subscribers.
        problem = tiny_instances()[1]
        assert optimal_satisfied(problem) == 3

    def test_latency_starved_optimum(self):
        # Node 2 cannot be reached within 8 ms through node 1 (4+7=11),
        # and the source's single slot can serve only one direct child:
        # serving 2 directly (7 < 8) then relaying to 1 via 2 (7+7 >= 8)
        # fails, so the optimum is 2 only when 1 relays... enumerate says:
        problem = tiny_instances()[2]
        assert optimal_satisfied(problem) == 1

    def test_inbound_starved_optimum(self):
        # Node 1 can accept only one of its three requests.
        problem = tiny_instances()[3]
        assert optimal_satisfied(problem) == 2


class TestHeuristicsAgainstOptimum:
    @pytest.mark.parametrize("instance_index", range(4))
    @pytest.mark.parametrize("name", sorted(available_algorithms()))
    def test_never_exceeds_optimum(self, instance_index, name):
        problem = tiny_instances()[instance_index]
        optimum = optimal_satisfied(problem)
        for seed in range(5):
            result = make_builder(name).build(problem, RngStream(seed))
            result.verify()
            assert len(result.satisfied) <= optimum

    @pytest.mark.parametrize("name", sorted(available_algorithms()))
    def test_optimal_on_ample_instance(self, name):
        problem = tiny_instances()[0]
        result = make_builder(name).build(problem, RngStream(1))
        assert len(result.satisfied) == problem.total_requests()

    def test_rj_within_half_of_optimum(self):
        """On the constrained instances RJ keeps >= half the optimum
        across seeds (greedy join with reservations is 1/2-competitive
        here empirically; this is a regression floor, not a theorem)."""
        for problem in tiny_instances()[1:]:
            optimum = optimal_satisfied(problem)
            for seed in range(10):
                result = make_builder("rj").build(problem, RngStream(seed))
                assert len(result.satisfied) * 2 >= optimum
