"""Equivalence suite for diffed problem assembly.

``ForestProblem.evolve`` must be indistinguishable from
``ForestProblem.from_workload`` on the same workload: identical costs,
limits, groups and derived tables, hence bit-identical build results
under the same RNG — across every named scenario, seed and builder, and
through the live control plane (a scenario run under diffed assembly
emits the very same directives as one under scratch assembly).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.model import MulticastGroup
from repro.core.problem import ForestProblem, ProblemDelta
from repro.core.registry import make_builder
from repro.errors import SubscriptionError
from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.runtime import ScenarioRuntime
from repro.session.capacity import UniformCapacityModel
from repro.session.session import SessionConfig, build_session
from repro.session.streams import StreamId
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from repro.workload.spec import SubscriptionWorkload
from tests.conftest import degree_tables
from tests.reference_paths import reference_runtime


def touched_groups(delta: ProblemDelta) -> int:
    """How many groups the delta patches."""
    return len(delta.added) + len(delta.removed) + len(delta.changed)


def make_session(n_sites: int = 8, seed: int = 3):
    return build_session(
        load_backbone(f"synthetic-{n_sites}"),
        UniformCapacityModel(streams_per_site=3),
        RngStream(seed, label="evolve-test").spawn("session"),
        SessionConfig(n_sites=n_sites, displays_per_site=2),
    )


def workload_of(session, site_sets) -> SubscriptionWorkload:
    return SubscriptionWorkload.from_site_sets(session.n_sites, site_sets)


def assert_equivalent(evolved: ForestProblem, scratch: ForestProblem) -> None:
    """Field-exact equality of the two assemblies' observable surfaces."""
    assert evolved.n_nodes == scratch.n_nodes
    assert evolved.latency_bound_ms == scratch.latency_bound_ms
    assert evolved.groups == scratch.groups
    assert evolved.u_matrix() == scratch.u_matrix()
    n = scratch.n_nodes
    assert evolved.inbound_limits() == scratch.inbound_limits()
    assert evolved.outbound_limits() == scratch.outbound_limits()
    assert evolved.m_table() == scratch.m_table()
    for node in range(n):
        assert (
            evolved.dense_cost_matrix().row(node)
            == scratch.dense_cost_matrix().row(node)
        )
        assert evolved.costs_to(node) == scratch.costs_to(node)
        assert evolved.streams_to_send(node) == scratch.streams_to_send(node)
    assert evolved.total_requests() == scratch.total_requests()
    assert evolved.all_requests() == scratch.all_requests()


def assert_builds_identical(
    evolved: ForestProblem, scratch: ForestProblem, algorithm: str, seed: int
) -> None:
    a = make_builder(algorithm).build(evolved, RngStream(seed))
    b = make_builder(algorithm).build(scratch, RngStream(seed))
    assert sorted(a.forest.edges()) == sorted(b.forest.edges())
    assert a.satisfied == b.satisfied
    assert a.rejected == b.rejected
    assert degree_tables(a.state) == degree_tables(b.state)


class TestProblemDelta:
    def test_empty_delta(self):
        group = MulticastGroup(stream=StreamId(0, 0), subscribers=frozenset({1}))
        delta = ProblemDelta.between([group], [group])
        assert delta.empty
        assert touched_groups(delta) == 0

    def test_added_removed_changed(self):
        s0, s1, s2 = StreamId(0, 0), StreamId(1, 0), StreamId(2, 0)
        old = [
            MulticastGroup(stream=s0, subscribers=frozenset({1})),
            MulticastGroup(stream=s1, subscribers=frozenset({0, 2})),
        ]
        new = [
            MulticastGroup(stream=s1, subscribers=frozenset({2})),
            MulticastGroup(stream=s2, subscribers=frozenset({0})),
        ]
        delta = ProblemDelta.between(old, new)
        assert [g.stream for g in delta.added] == [s2]
        assert [g.stream for g in delta.removed] == [s0]
        assert [(a.stream, b.stream) for a, b in delta.changed] == [(s1, s1)]
        assert touched_groups(delta) == 3


class TestEvolveUnit:
    def setup_method(self):
        self.session = make_session()
        self.base = workload_of(
            self.session,
            {
                0: (StreamId(1, 0), StreamId(2, 0)),
                1: (StreamId(0, 0), StreamId(2, 1)),
                3: (StreamId(0, 1),),
            },
        )
        self.prev = ForestProblem.from_workload(self.session, self.base, 120.0)

    def evolve_and_check(self, workload: SubscriptionWorkload) -> ForestProblem:
        evolved = ForestProblem.evolve(self.prev, workload)
        scratch = ForestProblem.from_workload(self.session, workload, 120.0)
        assert_equivalent(evolved, scratch)
        assert_builds_identical(evolved, scratch, "rj", seed=11)
        assert_builds_identical(evolved, scratch, "co-rj", seed=11)
        return evolved

    def test_empty_diff_shares_tables(self):
        evolved = self.evolve_and_check(self.base)
        assert evolved.dense_cost_matrix() is self.prev.dense_cost_matrix()
        assert evolved.m_table() is self.prev.m_table()

    def test_subscription_edit(self):
        self.evolve_and_check(
            workload_of(
                self.session,
                {
                    0: (StreamId(1, 0),),  # dropped 2:0
                    1: (StreamId(0, 0), StreamId(2, 1)),
                    3: (StreamId(0, 1), StreamId(2, 0)),  # picked up 2:0
                },
            )
        )

    def test_site_departs_mid_epoch(self):
        """Site 0 withdraws: its requests and its published streams go."""
        self.evolve_and_check(
            workload_of(
                self.session,
                {
                    1: (StreamId(2, 1),),
                    3: (StreamId(2, 0),),
                },
            )
        )

    def test_site_joins(self):
        self.evolve_and_check(
            workload_of(
                self.session,
                {
                    0: (StreamId(1, 0), StreamId(2, 0)),
                    1: (StreamId(0, 0), StreamId(2, 1)),
                    3: (StreamId(0, 1),),
                    5: (StreamId(0, 0), StreamId(1, 1), StreamId(3, 0)),
                },
            )
        )

    def test_full_churn_diff(self):
        """Every group replaced: the delta touches the whole workload."""
        evolved = self.evolve_and_check(
            workload_of(
                self.session,
                {
                    2: (StreamId(4, 0), StreamId(5, 0)),
                    4: (StreamId(6, 1),),
                    6: (StreamId(7, 2), StreamId(4, 1)),
                },
            )
        )
        # Still shares the cost matrix with its ancestor; the two bound
        # lists are per-round copies.
        assert evolved.dense_cost_matrix() is self.prev.dense_cost_matrix()
        assert evolved.inbound_limits() == self.prev.inbound_limits()
        assert evolved.inbound_limits() is not self.prev.inbound_limits()

    def test_empty_workload(self):
        evolved = ForestProblem.evolve(
            self.prev, workload_of(self.session, {})
        )
        assert evolved.groups == []
        assert evolved.u_matrix() == {}
        assert evolved.m_table() == [0] * self.session.n_sites

    def test_chained_evolution(self):
        """Round after round of evolution stays equivalent to scratch."""
        problem = self.prev
        rng = RngStream(23, label="chain")
        sites = self.session.n_sites
        for step in range(6):
            step_rng = rng.spawn(f"step-{step}")
            site_sets = {}
            for site in range(sites):
                streams = [
                    StreamId(other, index)
                    for other in range(sites)
                    if other != site
                    for index in range(2)
                ]
                k = step_rng.randint(0, 3)
                if k:
                    site_sets[site] = tuple(
                        sorted(step_rng.sample(streams, k))
                    )
            workload = workload_of(self.session, site_sets)
            evolved = ForestProblem.evolve(problem, workload)
            scratch = ForestProblem.from_workload(self.session, workload, 120.0)
            assert_equivalent(evolved, scratch)
            assert_builds_identical(evolved, scratch, "rj", seed=step)
            problem = evolved

    def test_site_count_mismatch_rejected(self):
        other = SubscriptionWorkload(n_sites=4)
        with pytest.raises(SubscriptionError):
            ForestProblem.evolve(self.prev, other)

    def test_streams_to_send_invalidated(self):
        before = self.prev.streams_to_send(2)
        assert before == 2  # streams 2:0 and 2:1 both requested
        evolved = ForestProblem.evolve(
            self.prev,
            workload_of(self.session, {1: (StreamId(2, 1),)}),
        )
        assert evolved.streams_to_send(2) == 1
        assert self.prev.streams_to_send(2) == before  # ancestor untouched


SEEDS = (13, 29)


@pytest.mark.parametrize("algorithm", ("rj", "co-rj"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", scenario_names())
class TestScenarioEquivalenceMatrix:
    """Diffed assembly is bit-identical to scratch through the control plane.

    Each named scenario runs twice under the incremental rebuild policy
    — once evolving each round's problem, once rebuilding it from the
    session — and must emit identical directives with identical audit
    digests.
    """

    def test_diffed_matches_scratch(self, name, seed, algorithm):
        base = replace(
            get_scenario(name, sites=6, seed=seed),
            algorithm=algorithm,
            rebuild_policy="incremental",
        )
        diffed_rt = ScenarioRuntime(base)
        scratch_rt = reference_runtime(base, assembly="scratch")
        diffed = diffed_rt.run()
        scratch = scratch_rt.run()
        assert diffed_rt.directives == scratch_rt.directives
        assert diffed.audit is not None and scratch.audit is not None
        assert diffed.audit.digest == scratch.audit.digest
        assert diffed.ok, diffed.summary()
        assert diffed.rounds == scratch.rounds
        assert diffed.rounds >= 2
        # The first round has no previous problem; every later one diffs.
        assert diffed.assemblies_scratch == 1
        assert diffed.assemblies_diffed == diffed.rounds - 1
        assert scratch.assemblies_diffed == 0


class TestAssemblyPolicyPlumbing:
    def test_auto_resolves_by_rebuild_policy(self):
        spec = get_scenario("fov-thrash", sites=5, seed=13)
        always = ScenarioRuntime(spec, audit=False).run()
        assert always.assemblies_diffed == 0
        assert always.assemblies_scratch == always.rounds
        incremental = ScenarioRuntime(
            replace(spec, rebuild_policy="incremental"), audit=False
        ).run()
        assert incremental.assemblies_diffed == incremental.rounds - 1

    def test_diffed_forced_under_always_is_equivalent(self):
        spec = get_scenario("mass-leave", sites=6, seed=13)
        diffed_rt = reference_runtime(spec, assembly="diffed")
        scratch_rt = ScenarioRuntime(spec)
        diffed = diffed_rt.run()
        scratch = scratch_rt.run()
        assert diffed_rt.directives == scratch_rt.directives
        assert diffed.audit.digest == scratch.audit.digest
        assert diffed.assemblies_diffed == diffed.rounds - 1

    def test_summary_reports_assembly_counts(self):
        spec = replace(
            get_scenario("fov-thrash", sites=5, seed=13),
            rebuild_policy="incremental",
        )
        report = ScenarioRuntime(spec, audit=False).run()
        assert (
            f"problem assembly: {report.rounds - 1} diffed, 1 scratch"
            in report.summary()
        )
        assert f"{report.assemblies_diffed} diffed" in report.summary()
