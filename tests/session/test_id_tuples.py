"""``StreamId`` and ``SubscriptionRequest`` against the dataclasses they were.

Both are tuples now, so hashing, equality and order run at C level.
The digests hash their ``repr`` and every set and dict keyed by them
iterates in hash order, so each must read exactly as the frozen, ordered
dataclass did: same ``repr``, ``str`` and ``hash``, same answers to
``==`` and ``<``, same sorted order, same set iteration order, same
validation errors.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import SubscriptionRequest
from repro.errors import SubscriptionError
from repro.session.streams import StreamId
from tests.reference_paths import DataclassRequest, DataclassStreamId

COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)

#: Negative values included: both sides must refuse them alike.
ints = st.integers(min_value=-2, max_value=40)


def built(make, *args):
    """``make(*args)``, or the ``SubscriptionError`` it raised."""
    try:
        return make(*args)
    except SubscriptionError as exc:
        return exc


def pair_of_stream(site: int, index: int):
    return built(StreamId, site, index), built(DataclassStreamId, site, index)


def pair_of_request(subscriber: int, site: int, index: int):
    stream, oracle_stream = pair_of_stream(site, index)
    if isinstance(stream, SubscriptionError):
        return stream, oracle_stream
    return (
        built(SubscriptionRequest, subscriber, stream),
        built(DataclassRequest, subscriber, oracle_stream),
    )


def assert_same_outcome(got, want) -> bool:
    """Both built, or both refused with the same message."""
    if isinstance(want, SubscriptionError):
        assert type(got) is type(want) and str(got) == str(want)
        return False
    assert not isinstance(got, SubscriptionError), got
    return True


def assert_read_alike(got, want) -> None:
    assert repr(got) == repr(want)
    assert str(got) == str(want)
    assert hash(got) == hash(want)


def assert_collections_alike(items, oracles) -> None:
    assert [repr(x) for x in sorted(items)] == [repr(x) for x in sorted(oracles)]
    got: set = set()
    want: set = set()
    for item, oracle in zip(items, oracles):
        got.add(item)
        want.add(oracle)
    assert [repr(x) for x in got] == [repr(x) for x in want]
    for a, oa in zip(items, oracles):
        for b, ob in zip(items, oracles):
            for compare in COMPARISONS:
                assert compare(a, b) == compare(oa, ob)


class TestStreamId:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(ints, ints), max_size=30))
    def test_reads_like_the_dataclass(self, keys):
        items, oracles = [], []
        for site, index in keys:
            got, want = pair_of_stream(site, index)
            if assert_same_outcome(got, want):
                assert_read_alike(got, want)
                items.append(got)
                oracles.append(want)
        assert_collections_alike(items, oracles)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: StreamId(1, 2)._replace(site=-1),
            lambda: StreamId(1, 2)._replace(index=-1),
            lambda: StreamId._make((-1, 0)),
            lambda: StreamId._make([0, -5]),
        ],
    )
    def test_replace_and_make_validate(self, build):
        with pytest.raises(SubscriptionError, match="negative"):
            build()

    def test_replace_and_make_build_stream_ids(self):
        assert StreamId(1, 2)._replace(index=7) == StreamId(1, 7)
        assert type(StreamId._make((3, 4))) is StreamId


class TestSubscriptionRequest:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(ints, ints, ints), max_size=30))
    def test_reads_like_the_dataclass(self, keys):
        items, oracles = [], []
        for subscriber, site, index in keys:
            got, want = pair_of_request(subscriber, site, index)
            if assert_same_outcome(got, want):
                assert_read_alike(got, want)
                assert got.source == want.source
                items.append(got)
                oracles.append(want)
        assert_collections_alike(items, oracles)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SubscriptionRequest(1, StreamId(2, 0))._replace(subscriber=-1),
             "negative subscriber"),
            (lambda: SubscriptionRequest(1, StreamId(2, 0))._replace(subscriber=2),
             "own stream"),
            (lambda: SubscriptionRequest._make((-3, StreamId(2, 0))),
             "negative subscriber"),
            (lambda: SubscriptionRequest._make((2, StreamId(2, 0))), "own stream"),
        ],
    )
    def test_replace_and_make_validate(self, build, message):
        with pytest.raises(SubscriptionError, match=message):
            build()
