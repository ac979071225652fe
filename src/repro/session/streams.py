"""Stream identity and registry.

The paper names streams ``s_j^q``: the stream with local index ``q``
originating from site ``H_j``.  :class:`StreamId` encodes exactly that
pair, and :class:`StreamRegistry` is the session-wide namespace mapping
sites to the streams they publish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.errors import SubscriptionError
from repro.util.units import mbps_for_stream


class StreamId(NamedTuple("StreamId", [("site", int), ("index", int)])):
    """Identity of one 3D video stream: ``s_{site}^{index}``.

    A ``(site, index)`` tuple, so hashing, equality and the site-major
    order run at C level; the hash is ``hash((site, index))``.

    Attributes
    ----------
    site:
        Index ``j`` of the originating site ``H_j``.
    index:
        Local camera/stream index ``q`` within the site.
    """

    __slots__ = ()

    def __new__(cls, site: int, index: int) -> "StreamId":
        if site < 0:
            raise SubscriptionError(f"negative site index: {site}")
        if index < 0:
            raise SubscriptionError(f"negative stream index: {index}")
        return tuple.__new__(cls, (site, index))

    @classmethod
    def _make(cls, iterable) -> "StreamId":
        # ``_replace`` builds through ``_make``: both validate.
        return cls(*iterable)

    def __str__(self) -> str:
        return f"s{self.site}^{self.index}"


@dataclass(frozen=True)
class StreamDescriptor:
    """Static properties of one published stream."""

    stream_id: StreamId
    camera_id: str
    bandwidth_mbps: float = field(default_factory=lambda: mbps_for_stream(quality=0.5))

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise SubscriptionError(
                f"stream {self.stream_id} has non-positive bandwidth"
            )


class StreamRegistry:
    """Session-wide registry of published streams, indexed by site."""

    def __init__(self) -> None:
        self._by_site: dict[int, dict[int, StreamDescriptor]] = {}

    def register(self, descriptor: StreamDescriptor) -> None:
        """Add a stream; duplicate ids are rejected."""
        sid = descriptor.stream_id
        site_streams = self._by_site.setdefault(sid.site, {})
        if sid.index in site_streams:
            raise SubscriptionError(f"duplicate stream id {sid}")
        site_streams[sid.index] = descriptor

    def streams_of_site(self, site: int) -> list[StreamDescriptor]:
        """All streams published by ``site`` (ordered by local index)."""
        site_streams = self._by_site.get(site, {})
        return [site_streams[idx] for idx in sorted(site_streams)]

    def describe(self, stream_id: StreamId) -> StreamDescriptor:
        """Look up a stream descriptor."""
        try:
            return self._by_site[stream_id.site][stream_id.index]
        except KeyError:
            raise SubscriptionError(f"unknown stream {stream_id}") from None

    def __contains__(self, stream_id: StreamId) -> bool:
        return (
            stream_id.site in self._by_site
            and stream_id.index in self._by_site[stream_id.site]
        )

    def __iter__(self) -> Iterator[StreamDescriptor]:
        for site in sorted(self._by_site):
            yield from self.streams_of_site(site)

    def __len__(self) -> int:
        return sum(len(streams) for streams in self._by_site.values())
