"""Tests for the runtime invariant auditor."""

from __future__ import annotations

import pytest

from repro.core.randomized import RandomJoinBuilder
from repro.errors import SimulationError
from repro.pubsub.system import PubSubSystem
from repro.session.streams import StreamId
from repro.sim.invariants import InvariantAuditor, Violation
from repro.util.rng import RngStream


@pytest.fixture
def clean_result(small_problem, rng):
    return RandomJoinBuilder().build(small_problem, rng.spawn("build"))


def invariants_of(violations: list[Violation]) -> set[str]:
    return {violation.invariant for violation in violations}


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
        member = next(n for n in tree.members() if n != tree.source)
        # Corrupt: point the member's parent back at itself.
        tree._parent[member] = member
        found = InvariantAuditor().audit_build(clean_result)
        assert "acyclicity" in invariants_of(found)

    def test_symmetry_breach_detected(self, clean_result):
        tree = next(
            t for t in clean_result.forest.trees.values() if len(t) >= 2
        )
        member = next(n for n in tree.members() if n != tree.source)
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

    def test_per_site_tables_match_the_directives_own_accessors(
        self, round_state, small_session
    ):
        """The audit builds every site's expected tables in one pass over
        the edges; they must be what the per-site accessors say, reported
        site by site, forwarding before receiving."""
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
            for edge_stream, child in directive.edges_of_site(site):
                table.setdefault(edge_stream, []).append(child)
            for edge_stream, children in table.items():
                if sorted(rp.next_hops(edge_stream)) != sorted(children):
                    expected.append(
                        f"site {site} forwards {edge_stream} to "
                        f"{rp.next_hops(edge_stream)}, directive says {children}"
                    )
            if rp.received_streams() != directive.streams_received_by(site):
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
