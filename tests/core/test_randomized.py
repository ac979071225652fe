"""Tests for the RJ builder."""

from __future__ import annotations

from repro.core.randomized import RandomJoinBuilder
from repro.util.rng import RngStream


class TestRandomJoin:
    def test_single_phase_with_all_groups(self, small_problem, rng):
        phases = list(RandomJoinBuilder().phases(small_problem, rng))
        assert len(phases) == 1
        [requests] = phases
        assert len({r.stream for r in requests}) == small_problem.n_groups
        assert len(requests) == small_problem.total_requests()

    def test_every_request_exactly_once(self, small_problem, rng):
        requests = next(iter(RandomJoinBuilder().phases(small_problem, rng)))
        assert sorted(requests) == sorted(small_problem.all_requests())

    def test_shuffle_depends_on_rng(self, small_problem):
        a = next(iter(RandomJoinBuilder().phases(small_problem, RngStream(1))))
        b = next(iter(RandomJoinBuilder().phases(small_problem, RngStream(2))))
        assert a != b  # overwhelmingly likely for 20+ requests

    def test_build_deterministic_given_seed(self, small_problem):
        r1 = RandomJoinBuilder().build(small_problem, RngStream(5))
        r2 = RandomJoinBuilder().build(small_problem, RngStream(5))
        assert r1.satisfied == r2.satisfied
        assert r1.rejected == r2.rejected

    def test_verify(self, small_problem, rng):
        RandomJoinBuilder().build(small_problem, rng).verify()
