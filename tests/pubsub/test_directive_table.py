"""The directive tables.

``OverlayDirective.edges`` and ``OverlayDirective.rejected`` are flat
tables standing in for the tuples they replace.  They must print,
iterate, compare, hash and concatenate exactly as those tuples did, so
every digest that reads a directive is unchanged; refuse a malformed
edge by name; and cost the garbage collector a fixed number of objects
however large the forest.
"""

from __future__ import annotations

import gc
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_builder, quick_session
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.errors import ProtocolError
from repro.pubsub.membership import MembershipServer, _patched
from repro.pubsub.messages import (
    Advertisement,
    EdgeTable,
    OverlayDirective,
    RejectionTable,
    SiteSubscription,
    StreamIndex,
)
from repro.session.streams import StreamId
from repro.util.rng import RngStream

S, T, U = StreamId(0, 0), StreamId(1, 0), StreamId(2, 1)

#: Out of order, with a duplicate: the table keeps both as given.
EDGES = ((S, 0, 1), (T, 1, 0), (U, 2, 3), (S, 1, 2), (S, 0, 1))
REJECTED = (
    (SubscriptionRequest(2, T), RejectionReason.TREE_SATURATED),
    (SubscriptionRequest(3, S), RejectionReason.INBOUND_SATURATED),
    (SubscriptionRequest(2, T), RejectionReason.TREE_SATURATED),
    (SubscriptionRequest(0, U), RejectionReason.VICTIM_SWAPPED),
)


@pytest.mark.parametrize("count", [0, 1, len(EDGES)], ids=["empty", "one", "many"])
def test_edges_print_as_their_tuple(count):
    edges = EDGES[:count]
    table = OverlayDirective(epoch=1, edges=edges).edges
    assert isinstance(table, EdgeTable)
    assert repr(table) == repr(edges) and str(table) == str(edges)
    if count == 1:
        assert repr(table).endswith(",)")


@pytest.mark.parametrize("count", [0, 1, len(REJECTED)], ids=["empty", "one", "many"])
def test_rejections_print_as_their_tuple(count):
    rejected = REJECTED[:count]
    table = OverlayDirective(epoch=1, edges=(), rejected=rejected).rejected
    assert isinstance(table, RejectionTable)
    assert repr(table) == repr(rejected)
    assert all(type(request) is SubscriptionRequest for request, _ in table)


@pytest.mark.parametrize(
    "rows, encode",
    [(EDGES, EdgeTable.of), (REJECTED, RejectionTable.of)],
    ids=["edges", "rejected"],
)
def test_a_table_answers_what_its_tuple_answers(rows, encode):
    table = encode(rows)
    assert table == rows and rows == table and not table != rows
    assert hash(table) == hash(rows)
    assert len(table) == len(rows) and bool(table) and not encode(())
    assert list(table) == list(rows) and tuple(reversed(table)) == rows[::-1]
    assert [table[i] for i in range(-len(rows), len(rows))] == list(rows + rows)
    assert table[1:3] == rows[1:3] and type(table[1:3]) is tuple
    with pytest.raises(IndexError):
        table[len(rows)]
    assert table + rows[:1] == rows + rows[:1] and table + table == rows + rows
    assert table.count(rows[0]) == rows.count(rows[0]) == 2
    assert table.index(rows[1]) == 1 and rows[2] in table
    # Unequal where the tuple is: another order, a list, a shorter table.
    assert table != rows[::-1] and table != list(rows) and table != encode(rows[:-1])
    assert pickle.loads(pickle.dumps(table)) == table


def test_tables_on_different_indexes_compare_by_their_rows():
    wide = StreamIndex.of((S, T, U, StreamId(0, 1), StreamId(5, 0)))
    on_own, on_wide = EdgeTable.of(EDGES), EdgeTable.of(EDGES, wide)
    assert on_own.streams == (S, T, U) and on_wide.streams == wide.streams
    assert on_own == on_wide and hash(on_own) == hash(on_wide)
    assert on_own != EdgeTable.of(EDGES[1:], wide)
    assert RejectionTable.of(REJECTED) == RejectionTable.of(REJECTED, wide)
    # Two empty tables are the empty tuple, whichever kind they are.
    assert EdgeTable.of(()) == RejectionTable.of(()) == ()


def test_decoded_edges_share_the_index_stream_ids():
    index = StreamIndex.of((S, T, U))
    table = EdgeTable.of(((StreamId(0, 0), 0, 1), (StreamId(0, 0), 1, 2)), index)
    assert all(stream is index.streams[0] for stream, _, _ in table)


@pytest.mark.parametrize(
    "edge",
    [
        (S, -1, 2),
        (S, 1, 1),
        (S, 1),
        (S, 1, 2, 3),
        (S, 1, 2**32),
        (S, 2**40, 1),
        ((0, 0), 1, 2),
        (S, 1.0, 2),
        7,
    ],
    ids=[
        "negative",
        "self-loop",
        "two-fields",
        "four-fields",
        "too-wide-child",
        "too-wide-parent",
        "plain-tuple-stream",
        "float-site",
        "not-a-tuple",
    ],
)
def test_a_malformed_edge_is_refused_by_name(edge):
    with pytest.raises(ProtocolError, match="malformed edge " + re.escape(repr(edge))):
        OverlayDirective(epoch=1, edges=((S, 0, 1), edge))


def test_an_edge_off_the_index_is_refused():
    with pytest.raises(ProtocolError, match="not indexed"):
        EdgeTable.of(((U, 2, 3),), StreamIndex.of((S, T)))


@pytest.mark.parametrize(
    "entry",
    [
        (SubscriptionRequest(2, T),),
        (SubscriptionRequest(2, T), "tree-saturated"),
        ((2, T), RejectionReason.TREE_SATURATED),
        (SubscriptionRequest(2**32, T), RejectionReason.TREE_SATURATED),
    ],
    ids=["one-field", "reason-string", "plain-request", "too-wide-subscriber"],
)
def test_a_malformed_rejection_is_refused(entry):
    with pytest.raises(ProtocolError, match="malformed rejection"):
        OverlayDirective(epoch=1, edges=(), rejected=(entry,))


# -- the server's sorted tables ------------------------------------------------------

edge_sets = st.sets(
    st.tuples(
        st.builds(StreamId, st.integers(0, 5), st.integers(0, 2)),
        st.integers(0, 5),
        st.integers(0, 5),
    ).filter(lambda edge: edge[1] != edge[2]),
    max_size=30,
)
INDEX = StreamIndex.of(StreamId(site, q) for site in range(6) for q in range(3))


@settings(max_examples=200, deadline=None)
@given(before=edge_sets, after=edge_sets)
def test_a_patched_table_is_the_sorted_tuple_patched(before, after):
    """Bisecting the columns finds every edge where a sort puts it."""
    table = _patched(
        EdgeTable.of(sorted(before), INDEX),
        tuple(sorted(after - before)),
        tuple(sorted(before - after)),
        INDEX,
    )
    assert table == tuple(sorted(after)) and table.streams is INDEX.streams


def test_patching_out_an_undictated_edge_is_refused():
    table = EdgeTable.of(sorted(EDGES[:4]), INDEX)
    for edge in ((S, 0, 2), (S, 2, 1), (StreamId(4, 0), 4, 1)):
        with pytest.raises(ProtocolError, match="never dictated"):
            _patched(table, (), (edge,), INDEX)


# -- what a kept directive costs the collector ---------------------------------------


def _tracked_objects(root, skip=()) -> int:
    """GC-tracked objects ``root`` keeps alive, stream ids and ``skip`` aside."""
    seen = {id(obj) for obj in skip}
    count = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, StreamId)):
            continue
        if not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        count += 1
        stack.extend(gc.get_referents(obj))
    return count


def _full_and_delta(n_sites: int) -> tuple[OverlayDirective, OverlayDirective]:
    """A rebuild's directive and the repair's after one site leaves, with
    every site asking for every stream, so that both reject some; each
    carries its forest's sorted edges."""
    rng = RngStream(3)
    session = quick_session(n_sites=n_sites, rng=rng)
    server = MembershipServer(
        session=session, builder=make_builder("rj"), rebuild_policy="incremental"
    )
    for site in session.sites:
        server.register_advertisement(
            Advertisement(site=site.index, streams=tuple(site.stream_ids))
        )
        server.register_subscription(
            SiteSubscription(
                site=site.index,
                streams=tuple(
                    stream
                    for other in session.sites
                    if other.index != site.index
                    for stream in other.stream_ids
                ),
            )
        )
    full = server.build_overlay(rng.spawn("r0"))
    assert full.edges == tuple(sorted(server.last_result.forest.edges()))
    server.withdraw_site(0)
    delta = server.build_overlay(rng.spawn("r1"))
    assert delta.edges == tuple(sorted(server.last_result.forest.edges()))
    assert not full.is_delta and delta.is_delta
    return full, delta


def test_a_directive_is_a_fixed_number_of_tracked_objects():
    counts: dict[str, set[int]] = {"full": set(), "delta": set()}
    sizes = set()
    for n_sites in (4, 8):
        full, delta = _full_and_delta(n_sites)
        sizes.add((len(full.edges), len(full.rejected), len(delta.rejected)))
        counts["full"].add(_tracked_objects(full))
        # The delta itself is a few edge tuples, as many as changed.
        counts["delta"].add(
            _tracked_objects(delta, skip=(delta.added, delta.removed))
        )
    small, large = sorted(sizes)
    assert all(0 < a < b for a, b in zip(small, large)), sizes
    assert all(len(kind) == 1 for kind in counts.values()), counts
