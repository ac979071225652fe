"""Tests for the runtime invariant auditor."""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.all_to_all import DirectUnicastBuilder
from repro.core.model import RejectionReason
from repro.core.problem import ForestProblem
from repro.core.registry import available_algorithms, make_builder
from repro.core.randomized import RandomJoinBuilder
from repro.errors import SimulationError
from repro.pubsub.system import PubSubSystem
from repro.session.streams import StreamId
from repro.sim.invariants import InvariantAuditor, Violation, _provably_sound
from repro.session.capacity import HeterogeneousCapacityModel
from repro.session.session import SessionConfig, build_session
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from repro.workload.coverage import CoverageWorkloadModel
from tests.conftest import audit_log_line, members, next_hops
from tests.reference_paths import edges_of_site, streams_received_by


@pytest.fixture
def clean_result(small_problem, rng):
    return RandomJoinBuilder().build(small_problem, rng.spawn("build"))


def invariants_of(violations: list[Violation]) -> set[str]:
    return {violation.invariant for violation in violations}


class TestEveryBuilder:
    """The auditor re-derives ``m̂`` from the opened groups on every build:
    the registry builders open a group at its first request, the unicast
    baseline opens every group up front."""

    @pytest.mark.parametrize("bound", [90.0, 150.0])
    @pytest.mark.parametrize("algorithm", [*available_algorithms(), "unicast"])
    def test_build_audits_clean(self, algorithm, bound):
        rng = RngStream(3, label="every-builder")
        session = build_session(
            load_backbone("synthetic-12"),
            HeterogeneousCapacityModel(
                large=9, medium=6, small=3, streams_low=2, streams_high=5
            ),
            rng.spawn("session"),
            SessionConfig(n_sites=12, displays_per_site=2),
        )
        workload = CoverageWorkloadModel(
            mean_subscribers=7.0, guarantee_coverage=False
        ).generate(session, rng.spawn("workload"))
        problem = ForestProblem.from_workload(session, workload, bound)
        builder = (
            DirectUnicastBuilder() if algorithm == "unicast"
            else make_builder(algorithm)
        )
        result = builder.build(problem, rng.spawn("build"))
        assert result.rejected  # saturated: reservations are contended
        assert InvariantAuditor().audit_build(result) == []


class TestCleanBuild:
    def test_no_violations(self, clean_result):
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert found == []
        report = auditor.report()
        assert report.ok
        assert report.events_audited == 1
        assert report.checks_run > 0
        assert len(report.digest) == 64

    def test_digest_deterministic_across_auditors(self, clean_result):
        first = InvariantAuditor()
        second = InvariantAuditor()
        first.audit_build(clean_result, event="e", time_ms=5.0)
        second.audit_build(clean_result, event="e", time_ms=5.0)
        assert first.report().digest == second.report().digest

    def test_digest_sensitive_to_event_label(self, clean_result):
        first = InvariantAuditor()
        second = InvariantAuditor()
        first.audit_build(clean_result, event="a")
        second.audit_build(clean_result, event="b")
        assert first.report().digest != second.report().digest

    def test_report_summary_mentions_counts(self, clean_result):
        auditor = InvariantAuditor()
        auditor.audit_build(clean_result)
        summary = auditor.report().summary()
        assert "1 events" in summary
        assert "0 violations" in summary


class TestStructuralViolations:
    def test_cycle_detected(self, clean_result):
        tree = next(
            t for t in clean_result.forest.trees.values() if len(t) >= 2
        )
        member = next(n for n in members(tree) if n != tree.source)
        # Corrupt: point the member's parent back at itself.
        tree._parent[member] = member
        found = InvariantAuditor().audit_build(clean_result)
        assert "acyclicity" in invariants_of(found)

    def test_symmetry_breach_detected(self, clean_result):
        tree = next(
            t for t in clean_result.forest.trees.values() if len(t) >= 2
        )
        member = next(n for n in members(tree) if n != tree.source)
        # Corrupt: drop the child from its parent's children list.
        tree._children[tree._parent[member]].remove(member)
        found = InvariantAuditor().audit_build(clean_result)
        assert "parent-child-symmetry" in invariants_of(found)

    def test_degree_ledger_mismatch_detected(self, clean_result):
        clean_result.state.dout[0] += 1
        found = InvariantAuditor().audit_build(clean_result)
        assert "degree-ledger" in invariants_of(found)

    def test_inbound_bound_violation_detected(self, clean_result):
        node = clean_result.satisfied[0].subscriber
        clean_result.problem.set_inbound_limit(node, 0)
        found = InvariantAuditor().audit_build(clean_result)
        assert "inbound-bound" in invariants_of(found)

    def test_latency_violation_detected(self, clean_result):
        request = clean_result.satisfied[0]
        tree = clean_result.forest.trees[request.stream]
        tree._cost_from_source[request.subscriber] = 10_000.0
        found = InvariantAuditor().audit_build(clean_result)
        assert "latency-bound" in invariants_of(found)

    def test_nan_path_cost_detected(self, clean_result):
        request = clean_result.satisfied[0]
        tree = clean_result.forest.trees[request.stream]
        tree._cost_from_source[request.subscriber] = float("nan")
        found = InvariantAuditor().audit_build(clean_result)
        assert "latency-bound" in invariants_of(found)

    def test_reservation_accounting_mismatch_detected(self, clean_result):
        source = clean_result.problem.groups[0].source
        clean_result.state.m_hat[source] += 1
        clean_result.state.m[source] += 1  # keep the range check quiet
        found = InvariantAuditor().audit_build(clean_result)
        assert "reservation-accounting" in invariants_of(found)

    def test_accounting_mismatch_detected(self, clean_result):
        clean_result.forest.satisfied.pop()
        found = InvariantAuditor().audit_build(clean_result)
        assert "request-accounting" in invariants_of(found)

    def test_strict_mode_raises(self, clean_result):
        clean_result.state.dout[0] += 1
        with pytest.raises(SimulationError, match="invariant violated"):
            InvariantAuditor(strict=True).audit_build(clean_result)

    def test_violations_carry_event_and_time(self, clean_result):
        clean_result.state.dout[0] += 1
        auditor = InvariantAuditor()
        auditor.audit_build(clean_result, event="probe", time_ms=42.0)
        violation = auditor.report().violations[0]
        assert violation.event == "probe"
        assert violation.time_ms == 42.0
        assert "probe" in violation.render()


def a_relay_tree(result):
    """A tree of at least two members, and one member that is not its source."""
    tree = next(t for t in result.forest.trees.values() if len(t) >= 2)
    return tree, next(n for n in members(tree) if n != tree.source)


def orphan_a_member(result):
    tree, member = a_relay_tree(result)
    del tree._parent[member]  # still its parent's child, but parentless
    return tree


def cap_a_source_at_zero(result):
    tree, _ = a_relay_tree(result)
    result.problem.set_outbound_limit(tree.source, 0)


def skew_the_ledger(result):
    result.state.din[0] += 1


def push_m_hat_below_zero(result):
    result.state.m_hat[0] = -1


def drop_a_satisfied_tree(result):
    del result.forest.trees[result.satisfied[0].stream]


def reject_a_satisfied_request(result):
    request = result.satisfied[0]
    result.forest.rejected.append((request, RejectionReason.TREE_SATURATED))


#: Per auditor check that only a broken result fires: a break that fires
#: it, and what its report says.
BREAKS = {
    "acyclicity": (orphan_a_member, "cannot reach source of tree"),
    "outbound-bound": (cap_a_source_at_zero, "> O 0"),
    "degree-ledger": (skew_the_ledger, "!= ledger"),
    "reservation-range": (push_m_hat_below_zero, "m̂ -1 outside [0, m="),
    "membership": (drop_a_satisfied_tree, "absent from its tree"),
    "request-accounting": (
        reject_a_satisfied_request, "both satisfied and rejected"
    ),
}


@pytest.mark.parametrize("invariant", list(BREAKS))
def test_each_check_fires_on_a_hand_broken_result(clean_result, invariant):
    brk, detail = BREAKS[invariant]
    assert InvariantAuditor().audit_build(clean_result) == []
    tree = brk(clean_result)
    if tree is not None:
        # The soundness proof must fail, or the tree is never examined.
        assert not _provably_sound(
            tree.source, tree.parent_map(), tree.children_map()
        )
    found = InvariantAuditor().audit_build(clean_result)
    assert any(
        v.invariant == invariant and detail in v.detail for v in found
    ), [v.render() for v in found]


@pytest.fixture
def chain_result():
    """An rj build of s0^0 over 4 sites: edges 0->2->3, costs 0/50/100 ms.

    ``c(0, 3)`` is over the 120 ms bound and site 0 relays one stream, so
    3 joins below 2.
    """
    cost = {
        0: {0: 0.0, 1: 10.0, 2: 50.0, 3: 130.0},
        1: {0: 10.0, 1: 0.0, 2: 10.0, 3: 10.0},
        2: {0: 50.0, 1: 10.0, 2: 0.0, 3: 50.0},
        3: {0: 130.0, 1: 10.0, 2: 50.0, 3: 0.0},
    }
    problem = ForestProblem.from_tables(
        cost, dict.fromkeys(range(4), 4), {0: 1, 1: 4, 2: 4, 3: 4},
        {StreamId(0, 0): {2, 3}}, 120.0,
    )
    result = RandomJoinBuilder().build(problem, RngStream(0))
    tree = result.forest.trees[StreamId(0, 0)]
    assert tree.parent_map() == {2: 0, 3: 2}
    assert tree.path_costs() == {0: 0.0, 2: 50.0, 3: 100.0}
    return result


class TestPathCosts:
    """The cached source-to-node costs are checked, not taken on trust."""

    def test_a_stale_cached_cost_is_reported(self, chain_result):
        tree = chain_result.forest.trees[StreamId(0, 0)]
        tree.path_costs()[3] = 1.0
        chain_result.problem.set_cost(2, 3, 500.0)
        found = InvariantAuditor().audit_build(chain_result)
        assert [(v.invariant, v.detail) for v in found] == [
            (
                "path-cost",
                "3: cached cost 1.0 != 50.0 + c(2, 3) 500.0 in tree s0^0",
            )
        ]

    def test_a_missing_cached_cost_is_reported_not_raised(self, chain_result):
        chain_result.forest.trees[StreamId(0, 0)].path_costs().pop(3)
        found = InvariantAuditor().audit_build(chain_result)
        assert [(v.invariant, v.detail) for v in found] == [
            ("path-cost", "3 has no cached cost in tree s0^0")
        ]

    def test_a_matrix_edit_after_a_clean_audit_is_caught(self, chain_result):
        auditor = InvariantAuditor()
        assert auditor.audit_build(chain_result) == []
        assert auditor.audit_build(chain_result) == []
        chain_result.problem.set_cost(2, 3, 60.0)
        found = auditor.audit_build(chain_result)
        assert invariants_of(found) == {"path-cost"}
        assert found == InvariantAuditor().audit_build(chain_result)


@pytest.fixture
def round_state(small_session):
    """One full control round through the pub-sub façade."""
    rng = RngStream(99, label="round")
    system = PubSubSystem(
        session=small_session,
        builder=RandomJoinBuilder(),
        latency_bound_ms=200.0,
    )
    for site in small_session.sites:
        remote = sorted(
            stream_id
            for other in small_session.sites
            if other.index != site.index
            for stream_id in other.stream_ids
        )[:3]
        system.subscribe_display(
            site.index, site.displays[0].display_id, remote
        )
    directive = system.run_control_round(rng)
    return system, directive


class TestAuditRound:
    def test_clean_round(self, round_state, small_session):
        system, directive = round_state
        auditor = InvariantAuditor()
        found = auditor.audit_round(
            system.last_result,
            directive,
            system.rps,
            active=range(small_session.n_sites),
        )
        assert found == []

    def test_phantom_directive_edge_detected(self, round_state, small_session):
        from dataclasses import replace

        system, directive = round_state
        phantom = (StreamId(0, 999), 0, 1)
        corrupted = replace(directive, edges=directive.edges + (phantom,))
        found = InvariantAuditor().audit_round(
            system.last_result,
            corrupted,
            system.rps,
            active=range(small_session.n_sites),
        )
        assert "directive-fidelity" in invariants_of(found)

    def test_stale_rp_epoch_detected(self, round_state, small_session):
        system, directive = round_state
        system.rps[0]._epoch = directive.epoch + 5
        found = InvariantAuditor().audit_round(
            system.last_result,
            directive,
            system.rps,
            active=range(small_session.n_sites),
        )
        assert "directive-fidelity" in invariants_of(found)

    def test_forwarding_table_tamper_detected(self, round_state, small_session):
        system, directive = round_state
        rp = next(
            rp for rp in system.rps.values() if rp._forwarding
        )
        stream = next(iter(rp._forwarding))
        rp._forwarding[stream] = rp._forwarding[stream] + [0]
        found = InvariantAuditor().audit_round(
            system.last_result,
            directive,
            system.rps,
            active=range(small_session.n_sites),
        )
        assert "forwarding-table" in invariants_of(found)

    def test_per_site_tables_match_the_per_site_scan(
        self, round_state, small_session
    ):
        """The audit builds every site's expected tables in one pass over
        the edges; they must be what scanning the edges per site says,
        reported site by site, forwarding before receiving."""
        system, directive = round_state
        sites = range(small_session.n_sites)
        relay = next(rp for rp in system.rps.values() if rp._forwarding)
        stream = next(iter(relay._forwarding))
        relay._forwarding[stream] = relay._forwarding[stream] + [0]
        deaf = next(rp for rp in system.rps.values() if rp._receiving)
        deaf._receiving = set()
        expected = []
        for site in sites:
            rp = system.rps[site]
            table: dict = {}
            for edge_stream, child in edges_of_site(directive, site):
                table.setdefault(edge_stream, []).append(child)
            for edge_stream, children in table.items():
                if sorted(next_hops(rp, edge_stream)) != sorted(children):
                    expected.append(
                        f"site {site} forwards {edge_stream} to "
                        f"{next_hops(rp, edge_stream)}, directive says {children}"
                    )
            if rp.receiving_set() != streams_received_by(directive, site):
                expected.append(
                    f"site {site} receiving set diverges from directive"
                )
        found = InvariantAuditor().audit_round(
            system.last_result, directive, system.rps, active=sites
        )
        assert len(expected) == 2
        assert [
            v.detail for v in found if v.invariant == "forwarding-table"
        ] == expected

    def test_missing_rp_for_active_site_detected(self, round_state, small_session):
        system, directive = round_state
        rps = dict(system.rps)
        del rps[0]
        found = InvariantAuditor().audit_round(
            system.last_result,
            directive,
            rps,
            active=range(small_session.n_sites),
        )
        assert "membership" in invariants_of(found)


def first_remote_streams(session, site, count=3, skip=0):
    return sorted(
        stream_id
        for other in session.sites
        if other.index != site.index
        for stream_id in other.stream_ids
    )[skip:skip + count]


@pytest.fixture
def delta_rounds(small_session):
    """An incremental system after one full round; ``next_round()`` moves
    site 0's first display to other streams and runs a delta round."""
    rng = RngStream(99, label="round")
    system = PubSubSystem(
        session=small_session,
        builder=RandomJoinBuilder(),
        latency_bound_ms=200.0,
        rebuild_policy="incremental",
    )
    for site in small_session.sites:
        system.subscribe_display(
            site.index,
            site.displays[0].display_id,
            first_remote_streams(small_session, site),
        )
    first = system.run_control_round(rng.spawn("first"))
    assert not first.is_delta

    def next_round():
        site = small_session.site(0)
        system.subscribe_display(
            0,
            site.displays[0].display_id,
            first_remote_streams(small_session, site, skip=2),
        )
        directive = system.run_control_round(rng.spawn("second"))
        assert directive.is_delta and (directive.added or directive.removed)
        return directive

    return system, first, next_round


def audit(auditor, system, directive, session, **stamp):
    return auditor.audit_round(
        system.last_result,
        directive,
        system.rps,
        active=range(session.n_sites),
        **stamp,
    )


STRAY = StreamId(0, 999)


class TestUndictatedForwarding:
    """A table entry for a stream the directive never gave the site."""

    def expected(self, site):
        return [
            Violation(
                "forwarding-table",
                f"site {site} forwards undictated stream {STRAY} to [1]",
            )
        ]

    def test_flagged_after_a_full_install(self, round_state, small_session):
        system, directive = round_state
        system.rps[0]._forwarding[STRAY] = [1]
        found = audit(InvariantAuditor(), system, directive, small_session)
        assert found == self.expected(0)

    def test_empty_stray_entry_is_flagged_too(self, round_state, small_session):
        system, directive = round_state
        system.rps[2]._forwarding[STRAY] = []
        found = audit(InvariantAuditor(), system, directive, small_session)
        assert [v.detail for v in found] == [
            f"site 2 forwards undictated stream {STRAY} to []"
        ]

    def test_a_full_install_replaces_the_table(self, delta_rounds, small_session):
        system, first, _ = delta_rounds
        system.rps[0]._forwarding[STRAY] = [1]
        system.rps[0].apply_directive(first, supersede=True)
        assert audit(InvariantAuditor(), system, first, small_session) == []

    def test_clean_delta_round(self, delta_rounds, small_session):
        system, _, next_round = delta_rounds
        directive = next_round()
        assert audit(InvariantAuditor(), system, directive, small_session) == []

    def test_flagged_when_a_delta_install_leaves_it(
        self, delta_rounds, small_session
    ):
        system, _, next_round = delta_rounds
        system.rps[1]._forwarding[STRAY] = [1]
        directive = next_round()
        found = audit(InvariantAuditor(), system, directive, small_session)
        assert found == self.expected(1)


def poke_cycle(result, system):
    tree = next(t for t in result.forest.trees.values() if len(t) >= 2)
    member = next(n for n in members(tree) if n != tree.source)
    tree._parent[member] = member
    return "acyclicity"


def poke_symmetry(result, system):
    tree = next(t for t in result.forest.trees.values() if len(t) >= 2)
    member = next(n for n in members(tree) if n != tree.source)
    tree._children[tree._parent[member]].remove(member)
    return "parent-child-symmetry"


def poke_children_only_edge(result, system):
    tree = next(t for t in result.forest.trees.values() if len(t) >= 2)
    tree._children[tree.source].append(tree.source)
    return "parent-child-symmetry"


def poke_forwarding(result, system):
    rp = next(rp for rp in system.rps.values() if rp._forwarding)
    stream = next(iter(rp._forwarding))
    rp._forwarding[stream] += [0]
    return "forwarding-table"


def poke_receiving(result, system):
    rp = next(rp for rp in system.rps.values() if rp._receiving)
    rp._receiving = set()
    return "forwarding-table"


def poke_path_cost(result, system):
    tree = next(t for t in result.forest.trees.values() if len(t) >= 2)
    member = next(n for n in members(tree) if n != tree.source)
    tree._cost_from_source[member] += 1.0
    return "path-cost"


def poke_edge_cost(result, system):
    tree = next(t for t in result.forest.trees.values() if len(t) >= 2)
    member = next(n for n in members(tree) if n != tree.source)
    parent = tree.parent(member)
    problem = result.problem
    problem.set_cost(parent, member, problem.edge_cost(parent, member) + 1.0)
    return "path-cost"


class TestTamperAfterACleanAudit:
    """The auditor that has seen the clean state is the one asked again.

    What it remembers is verified against the live content, so a write
    behind its back — the way a later round would corrupt a tree it
    shares with this one — is caught like on a first look.
    """

    @pytest.mark.parametrize(
        "poke",
        [
            poke_cycle,
            poke_symmetry,
            poke_children_only_edge,
            poke_forwarding,
            poke_receiving,
            poke_path_cost,
            poke_edge_cost,
        ],
    )
    def test_caught_by_the_same_instance(self, round_state, small_session, poke):
        system, directive = round_state
        auditor = InvariantAuditor()
        assert audit(auditor, system, directive, small_session) == []
        assert audit(auditor, system, directive, small_session) == []
        invariant = poke(system.last_result, system)
        found = audit(auditor, system, directive, small_session)
        assert invariant in invariants_of(found)
        # Still there on the next look, and what a first look reports.
        assert audit(auditor, system, directive, small_session) == found
        assert audit(InvariantAuditor(), system, directive, small_session) == found

    def test_build_audit_too(self, clean_result):
        auditor = InvariantAuditor()
        assert auditor.audit_build(clean_result) == []
        assert poke_cycle(clean_result, None) == "acyclicity"
        assert "acyclicity" in invariants_of(auditor.audit_build(clean_result))

    def test_a_repaired_tree_audits_clean_again(self, clean_result):
        tree = next(
            t for t in clean_result.forest.trees.values() if len(t) >= 2
        )
        member = next(n for n in members(tree) if n != tree.source)
        parent = tree._parent[member]
        auditor = InvariantAuditor()
        tree._parent[member] = member
        assert auditor.audit_build(clean_result) != []
        tree._parent[member] = parent
        assert auditor.audit_build(clean_result) == []

    def test_memo_holds_the_last_forest_only(self, delta_rounds, small_session):
        system, first, next_round = delta_rounds
        auditor = InvariantAuditor()
        audit(auditor, system, first, small_session)
        before = set(system.last_result.forest.trees)
        directive = next_round()
        audit(auditor, system, directive, small_session)
        after = set(system.last_result.forest.trees)
        assert before - after, "the round dropped no tree"
        assert {StreamId(*key) for key in auditor._memo} == after


class TestOutOfOrder:
    def test_later_round_first_logs_what_fresh_auditors_log(
        self, delta_rounds, small_session
    ):
        """The async service audits an epoch when its last delivery lands,
        so a later round's result can come first."""
        system, first, next_round = delta_rounds
        earlier = system.last_result
        second = next_round()
        later = system.last_result
        assert any(
            later.forest.trees.get(stream) is tree
            for stream, tree in earlier.forest.trees.items()
        ), "the repair shared no tree"
        sites = range(small_session.n_sites)
        rounds = [
            (later, second, "epoch-2", 20.0),
            (earlier, first, "epoch-1", 20.0),  # RPs moved on: violations
        ]
        one = InvariantAuditor()
        log = hashlib.sha256()
        checks = 0
        for result, directive, event, time_ms in rounds:
            fresh = InvariantAuditor()
            expected = fresh.audit_round(
                result, directive, system.rps, sites, event=event, time_ms=time_ms
            )
            found = one.audit_round(
                result, directive, system.rps, sites, event=event, time_ms=time_ms
            )
            assert found == expected
            line = audit_log_line(result.forest, event, time_ms, len(expected))
            assert fresh.report().digest == hashlib.sha256(line).hexdigest()
            log.update(line)
            checks += fresh.checks_run
        assert "directive-fidelity" in invariants_of(expected)
        assert one.report().digest == log.hexdigest()
        assert one.report().checks_run == checks
