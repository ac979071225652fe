"""Stream identity and registry.

The paper names streams ``s_j^q``: the stream with local index ``q``
originating from site ``H_j``.  :class:`StreamId` encodes exactly that
pair, and :class:`StreamRegistry` is the session-wide namespace mapping
sites to the streams they publish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator

from repro.errors import SubscriptionError
from repro.util.units import mbps_for_stream


@dataclass(frozen=True, order=True)
class StreamId:
    """Identity of one 3D video stream: ``s_{site}^{index}``.

    Attributes
    ----------
    site:
        Index ``j`` of the originating site ``H_j``.
    index:
        Local camera/stream index ``q`` within the site.
    """

    site: int
    index: int

    def __post_init__(self) -> None:
        if self.site < 0:
            raise SubscriptionError(f"negative site index: {self.site}")
        if self.index < 0:
            raise SubscriptionError(f"negative stream index: {self.index}")
        # Stream ids key every per-tree dict on the build hot path;
        # precomputing the (immutable) hash saves a tuple build per probe.
        object.__setattr__(self, "_hash", hash((self.site, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"s{self.site}^{self.index}"


#: Sort key for stream ids: the ``(site, index)`` order ``StreamId.__lt__``
#: defines, compared as a C-level int tuple instead of through the
#: dataclass's python-level method.
stream_order = attrgetter("site", "index")
#: The same order for whatever names its id as ``.stream`` (multicast
#: groups, subscription requests).
by_stream = attrgetter("stream.site", "stream.index")


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

    def stream_ids_of_site(self, site: int) -> list[StreamId]:
        """Ids of all streams published by ``site``."""
        return [d.stream_id for d in self.streams_of_site(site)]

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

    @property
    def sites(self) -> list[int]:
        """Indices of sites that publish at least one stream."""
        return sorted(self._by_site)
