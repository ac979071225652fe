"""Tests for the RP agent."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.pubsub.messages import (
    DisplaySubscription,
    EdgeTable,
    OverlayDirective,
    SiteSubscription,
)
from repro.pubsub.rp import RPAgent
from repro.session.entities import RendezvousPoint, Site
from repro.session.streams import StreamId
from tests.reference_paths import installed_tables


def displays_for(agent: RPAgent, stream: StreamId) -> list[str]:
    """Local displays whose subscription includes ``stream``."""
    return [
        display_id
        for display_id, streams in agent._display_subs.items()
        if stream in streams
    ]


@pytest.fixture
def agent(small_session) -> RPAgent:
    return RPAgent(small_session.site(0))


def sub(display_id: str, streams) -> DisplaySubscription:
    return DisplaySubscription(
        display_id=display_id, site=0, streams=tuple(streams)
    )


class TestDisplayAggregation:
    def test_union_of_displays(self, agent):
        agent.submit_display_subscription(
            sub("disp-0-0", [StreamId(1, 0), StreamId(1, 1)])
        )
        agent.submit_display_subscription(
            sub("disp-0-1", [StreamId(1, 1), StreamId(2, 0)])
        )
        aggregated = agent.aggregate_subscription()
        assert aggregated.streams == (
            StreamId(1, 0), StreamId(1, 1), StreamId(2, 0),
        )

    def test_resubmission_replaces(self, agent):
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(2, 0)]))
        assert agent.aggregate_subscription().streams == (StreamId(2, 0),)

    def test_clear_display(self, agent):
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        agent.clear_display_subscription("disp-0-0")
        assert agent.aggregate_subscription().streams == ()

    def test_wrong_site_rejected(self, agent):
        with pytest.raises(ProtocolError):
            agent.submit_display_subscription(
                DisplaySubscription(
                    display_id="disp-0-0", site=1, streams=(StreamId(0, 0),)
                )
            )

    def test_unknown_display_rejected(self, agent):
        with pytest.raises(ProtocolError):
            agent.submit_display_subscription(
                sub("ghost-display", [StreamId(1, 0)])
            )


class TestHeldSubscription:
    """The aggregate is rebuilt only after a display wrote to the agent."""

    def union(self, agent):
        """The aggregate from scratch, straight off the display table."""
        streams = {s for held in agent._display_subs.values() for s in held}
        return SiteSubscription(site=0, streams=tuple(sorted(streams)))

    def test_follows_every_submit_and_clear(self, agent):
        steps = [
            lambda: agent.submit_display_subscription(
                sub("disp-0-0", [StreamId(2, 1), StreamId(1, 0)])
            ),
            lambda: agent.submit_display_subscription(
                sub("disp-0-1", [StreamId(1, 0), StreamId(3, 2)])
            ),
            lambda: agent.submit_display_subscription(
                sub("disp-0-0", [StreamId(1, 5)])
            ),
            lambda: agent.clear_display_subscription("disp-0-1"),
            lambda: agent.clear_display_subscription("disp-0-1"),
            lambda: agent.clear_display_subscription("disp-0-0"),
        ]
        assert agent.aggregate_subscription() == self.union(agent)
        for step in steps:
            step()
            assert agent.aggregate_subscription() == self.union(agent)
        assert agent.aggregate_subscription().streams == ()

    def test_same_object_while_nothing_changed(self, agent):
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        held = agent.aggregate_subscription()
        assert agent.aggregate_subscription() is held
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        again = agent.aggregate_subscription()
        assert again == held and again is not held

    def test_rejected_submission_keeps_the_held_one(self, agent):
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        held = agent.aggregate_subscription()
        with pytest.raises(ProtocolError):
            agent.submit_display_subscription(sub("ghost", [StreamId(2, 0)]))
        assert agent.aggregate_subscription() is held


class TestAdvertisement:
    def test_advertises_local_streams(self, agent, small_session):
        advertisement = agent.advertisement()
        assert advertisement.site == 0
        assert set(advertisement.streams) == set(
            small_session.site(0).stream_ids
        )

    def test_built_once_in_stream_order(self, agent, small_session):
        advertisement = agent.advertisement()
        assert agent.advertisement() is advertisement
        assert advertisement.streams == tuple(
            sorted(small_session.site(0).stream_ids)
        )


class TestDirectiveApplication:
    def make_directive(self, epoch=1) -> OverlayDirective:
        return OverlayDirective(
            epoch=epoch,
            edges=(
                (StreamId(1, 0), 1, 0),   # site 0 receives s1^0
                (StreamId(1, 0), 0, 2),   # site 0 relays it to site 2
                (StreamId(0, 0), 0, 3),   # site 0 sends own stream to 3
            ),
        )

    def test_forwarding_table(self, agent):
        agent.apply_directive(self.make_directive())
        assert agent.next_hops(StreamId(1, 0)) == [2]
        assert agent.next_hops(StreamId(0, 0)) == [3]
        assert agent.next_hops(StreamId(9, 9)) == []

    def test_receiving_set(self, agent):
        agent.apply_directive(self.make_directive())
        assert StreamId(1, 0) in agent.receiving_set()
        assert StreamId(0, 0) not in agent.receiving_set()
        assert agent.receiving_set() == {StreamId(1, 0)}

    def test_stale_epoch_rejected(self, agent):
        agent.apply_directive(self.make_directive(epoch=2))
        with pytest.raises(ProtocolError):
            agent.apply_directive(self.make_directive(epoch=2))

    def test_epoch_tracked(self, agent):
        assert agent.epoch == -1
        agent.apply_directive(self.make_directive(epoch=1))
        assert agent.epoch == 1

    def test_displays_for(self, agent):
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        agent.submit_display_subscription(sub("disp-0-1", [StreamId(2, 0)]))
        assert displays_for(agent, StreamId(1, 0)) == ["disp-0-0"]

    def test_satisfied_fraction(self, agent):
        agent.submit_display_subscription(
            sub("disp-0-0", [StreamId(1, 0), StreamId(2, 0)])
        )
        agent.apply_directive(self.make_directive())
        assert agent.satisfied_fraction() == pytest.approx(0.5)

    def test_satisfied_fraction_empty_subscription(self, agent):
        assert agent.satisfied_fraction() == 1.0


class TestDeltaDirectives:
    """apply_directive with edge deltas (repair-served rounds)."""

    FULL_1 = (
        (StreamId(1, 0), 1, 0),   # site 0 receives s1^0
        (StreamId(1, 0), 0, 2),   # relays it to 2
        (StreamId(0, 0), 0, 3),   # own stream to 3
        (StreamId(0, 0), 0, 1),   # own stream to 1
    )
    # Epoch 2: stream s1^0 now relayed to 1 instead of 2; site 0 stops
    # receiving s2^0 never had it; gains s2^0 from site 2.
    FULL_2 = (
        (StreamId(1, 0), 1, 0),
        (StreamId(1, 0), 0, 1),
        (StreamId(0, 0), 0, 3),
        (StreamId(2, 0), 2, 0),
    )

    def delta_directive(self) -> OverlayDirective:
        old, new = set(self.FULL_1), set(self.FULL_2)
        return OverlayDirective(
            epoch=2,
            edges=tuple(sorted(self.FULL_2)),
            base_epoch=1,
            added=tuple(sorted(new - old)),
            removed=tuple(sorted(old - new)),
        )

    def test_delta_equals_full_install(self, small_session):
        """Forwarding tables after a delta apply match a full install."""
        via_delta = RPAgent(small_session.site(0))
        via_full = RPAgent(small_session.site(0))
        first = OverlayDirective(epoch=1, edges=tuple(sorted(self.FULL_1)))
        via_delta.apply_directive(first)
        via_full.apply_directive(first)
        via_delta.apply_directive(self.delta_directive())
        # The twin installs the same epoch as a full-set directive.
        via_full.apply_directive(
            OverlayDirective(epoch=2, edges=tuple(sorted(self.FULL_2)))
        )
        assert via_delta.epoch == via_full.epoch == 2
        for stream in {edge[0] for edge in self.FULL_1 + self.FULL_2}:
            assert via_delta.next_hops(stream) == via_full.next_hops(stream)
        assert via_delta.receiving_set() == via_full.receiving_set()
        assert via_delta._forwarding == via_full._forwarding

    def test_epoch_gap_falls_back_to_full_set(self, small_session):
        """An RP that missed the base epoch installs from ``edges``."""
        agent = RPAgent(small_session.site(0))   # epoch -1: never installed
        agent.apply_directive(self.delta_directive())
        assert agent.epoch == 2
        assert agent.next_hops(StreamId(1, 0)) == [1]
        assert agent.receiving_set() == {StreamId(1, 0), StreamId(2, 0)}

    def test_delta_removing_unknown_edge_rejected(self, small_session):
        agent = RPAgent(small_session.site(0))
        agent.apply_directive(
            OverlayDirective(epoch=1, edges=tuple(sorted(self.FULL_1)))
        )
        bogus = OverlayDirective(
            epoch=2,
            edges=tuple(sorted(self.FULL_1)),
            base_epoch=1,
            removed=((StreamId(5, 5), 0, 2),),
        )
        with pytest.raises(ProtocolError, match="unknown edge"):
            agent.apply_directive(bogus)


class TestDuplicateEdges:
    """An edge a site already holds, or a second parent for a stream it
    already receives, is refused like the removal of an unknown edge."""

    FULL_1 = TestDeltaDirectives.FULL_1

    def installed(self, small_session) -> RPAgent:
        agent = RPAgent(small_session.site(0))
        agent.apply_directive(
            OverlayDirective(epoch=1, edges=tuple(sorted(self.FULL_1)))
        )
        return agent

    def delta(self, added=(), removed=()) -> OverlayDirective:
        edges = (set(self.FULL_1) - set(removed)) | set(added)
        return OverlayDirective(
            epoch=2,
            edges=tuple(sorted(edges)),
            base_epoch=1,
            added=tuple(added),
            removed=tuple(removed),
        )

    def test_delta_re_adding_a_forwarding_edge_rejected(self, small_session):
        agent = self.installed(small_session)
        with pytest.raises(ProtocolError, match="adds installed edge"):
            agent.apply_directive(self.delta(added=((StreamId(1, 0), 0, 2),)))

    def test_delta_adding_a_second_parent_rejected(self, small_session):
        agent = self.installed(small_session)
        with pytest.raises(ProtocolError, match="second parent 3"):
            agent.apply_directive(self.delta(added=((StreamId(1, 0), 3, 0),)))

    def test_parent_switch_nets_out(self, small_session):
        agent = self.installed(small_session)
        agent.apply_directive(
            self.delta(
                added=((StreamId(1, 0), 3, 0),),
                removed=((StreamId(1, 0), 1, 0),),
            )
        )
        assert agent.epoch == 2
        assert agent.receiving_set() == {StreamId(1, 0)}

    def test_delta_insert_keeps_children_sorted(self, small_session):
        agent = self.installed(small_session)
        agent.apply_directive(
            self.delta(added=((StreamId(0, 0), 0, 2), (StreamId(0, 0), 0, 4)))
        )
        assert agent.next_hops(StreamId(0, 0)) == [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "edges",
        [
            ((StreamId(0, 0), 0, 1), (StreamId(0, 0), 0, 1)),
            ((StreamId(2, 0), 1, 3), (StreamId(2, 0), 2, 3)),
        ],
        ids=["duplicated-edge", "second-parent"],
    )
    def test_full_directive_rejected_at_every_site(self, small_session, edges):
        for site in (0, 3):
            agent = RPAgent(small_session.site(site))
            with pytest.raises(ProtocolError, match="twice"):
                agent.apply_directive(OverlayDirective(epoch=1, edges=edges))
            assert agent.epoch == -1


def _site(index: int) -> Site:
    pop = f"pop-{index}"
    return Site(index=index, pop_id=pop, rp=RendezvousPoint(index, pop, 9, 9))


N_SITES = 6


@st.composite
def directives(draw) -> OverlayDirective:
    """Edges in any order, with one parent per (stream, child): what a
    full install accepts.  Not necessarily a forest."""
    stream = st.builds(
        StreamId, st.integers(0, N_SITES - 1), st.integers(0, 3)
    )
    arcs = st.tuples(
        stream, st.integers(0, N_SITES - 1), st.integers(0, N_SITES - 1)
    ).filter(lambda edge: edge[1] != edge[2])
    edges = draw(
        st.lists(arcs, max_size=40, unique_by=lambda edge: (edge[0], edge[2]))
    )
    return OverlayDirective(epoch=draw(st.integers(0, 5)), edges=tuple(edges))


def assert_oracle_tables(agent: RPAgent, directive: OverlayDirective) -> None:
    forwarding, receiving = installed_tables(directive, agent.site.index)
    # Dict order and child-list order, not just equal contents.
    assert list(agent.forwarding_table().items()) == list(forwarding.items())
    assert agent.receiving_set() == receiving


class TestOnePassInstall:
    """A full install equals scanning every edge once per site."""

    @settings(max_examples=150, deadline=None)
    @given(directive=directives())
    def test_every_site_gets_the_oracle_slice(self, directive):
        for site in range(N_SITES):
            agent = RPAgent(_site(site))
            agent.apply_directive(directive)
            assert_oracle_tables(agent, directive)

    @settings(max_examples=150, deadline=None)
    @given(directive=directives())
    def test_the_edge_table_is_the_tuple_it_replaces(self, directive):
        """Re-encoded, hashed, printed and installed, the directive's
        edge table is the plain tuple of its edges: every site's full
        install is the slice a scan of that tuple gives."""
        edges = tuple(directive.edges)
        assert directive.edges == edges and edges == directive.edges
        assert hash(directive.edges) == hash(edges)
        assert repr(directive.edges) == repr(edges)
        assert EdgeTable.of(edges) == directive.edges
        plain = SimpleNamespace(edges=edges)
        for site in range(N_SITES):
            agent = RPAgent(_site(site))
            agent.apply_directive(directive)
            forwarding, receiving = installed_tables(plain, site)
            assert list(agent.forwarding_table().items()) == list(forwarding.items())
            assert agent.receiving_set() == receiving

    @settings(max_examples=60, deadline=None)
    @given(first=directives(), second=directives())
    def test_agents_own_their_tables(self, first, second):
        """Two agents per site, installs of two directives interleaved:
        what one agent does to its tables never reaches another's."""
        agents = [RPAgent(_site(site)) for site in range(N_SITES) for _ in (0, 1)]
        for directive in (first, second, first):
            for agent in agents:
                agent.apply_directive(directive, supersede=True)
                assert_oracle_tables(agent, directive)
                for children in agent.forwarding_table().values():
                    children.append(N_SITES)
                agent.receiving_set().add(StreamId(N_SITES, 0))

    def test_no_table_is_kept_on_a_directive(self, small_session):
        a = OverlayDirective(epoch=1, edges=tuple(sorted(TestDeltaDirectives.FULL_1)))
        b = OverlayDirective(epoch=2, edges=tuple(sorted(TestDeltaDirectives.FULL_2)))
        fields = {field.name for field in dataclasses.fields(OverlayDirective)}
        agent = RPAgent(small_session.site(0))
        agent.apply_directive(a)
        agent.apply_directive(b)
        assert set(vars(a)) == fields and set(vars(b)) == fields
        again = RPAgent(small_session.site(0))
        again.apply_directive(a)
        assert_oracle_tables(again, a)
