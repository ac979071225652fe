"""Workload data model: who subscribes to what.

:class:`SubscriptionWorkload` is the global subscription state the
centralized membership server aggregates (Sec. 3.2): for every site
``i``, the set of remote streams subscribed by at least one local
display.  From it derive the paper's ``u_{i->j}`` matrix (number of
streams of site ``j`` requested by site ``i``) and the multicast groups
``G(s)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import SubscriptionError
from repro.session.streams import StreamId


@dataclass
class WorkloadSpec:
    """Parameters of the display-driven workload model.

    Attributes
    ----------
    displays_per_site:
        Number of displays whose FOVs are drawn independently.
    fov_size:
        Streams per display FOV ("a large fraction of the other
        participants from a wide field of view").
    popularity:
        Name of the popularity family (``zipf`` or ``uniform``) — set by
        the generator, recorded for reporting.
    """

    displays_per_site: int = 4
    fov_size: int = 8
    popularity: str = "uniform"

    def __post_init__(self) -> None:
        if self.displays_per_site < 1:
            raise SubscriptionError(
                f"displays_per_site must be >= 1, got {self.displays_per_site}"
            )
        if self.fov_size < 1:
            raise SubscriptionError(f"fov_size must be >= 1, got {self.fov_size}")


@dataclass
class SubscriptionWorkload:
    """The aggregated global subscription state for one sample.

    Attributes
    ----------
    n_sites:
        Number of sites N.
    subscriptions:
        Per-site sorted tuple of subscribed remote streams.
    """

    n_sites: int
    subscriptions: dict[int, tuple[StreamId, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise SubscriptionError(f"n_sites must be >= 1, got {self.n_sites}")
        normalized: dict[int, tuple[StreamId, ...]] = {}
        for site, streams in self.subscriptions.items():
            if not 0 <= site < self.n_sites:
                raise SubscriptionError(f"subscriber site {site} out of range")
            unique = sorted(set(streams))
            for stream in unique:
                if stream.site == site:
                    raise SubscriptionError(
                        f"site {site} subscribes to its own stream {stream}"
                    )
                if not 0 <= stream.site < self.n_sites:
                    raise SubscriptionError(
                        f"stream {stream} originates outside the session"
                    )
            normalized[site] = tuple(unique)
        self.subscriptions = normalized

    @classmethod
    def from_site_sets(
        cls, n_sites: int, site_sets: Mapping[int, Iterable[StreamId]]
    ) -> "SubscriptionWorkload":
        """Build from per-site iterables of stream ids."""
        return cls(
            n_sites=n_sites,
            subscriptions={site: tuple(streams) for site, streams in site_sets.items()},
        )

    # -- derived views -----------------------------------------------------------

    def streams_of(self, site: int) -> tuple[StreamId, ...]:
        """Streams subscribed by ``site`` (possibly empty)."""
        return self.subscriptions.get(site, ())

    def total_requests(self) -> int:
        """Total number of (site, stream) subscription requests."""
        return sum(len(streams) for streams in self.subscriptions.values())

    def groups(self) -> dict[StreamId, frozenset[int]]:
        """Multicast groups ``G(s)``: stream -> set of requesting sites.

        Streams nobody subscribes to do not appear (no tree is needed).
        """
        groups: dict[StreamId, set[int]] = {}
        for site, streams in self.subscriptions.items():
            for stream in streams:
                groups.setdefault(stream, set()).add(site)
        return {stream: frozenset(sites) for stream, sites in groups.items()}

    def __str__(self) -> str:
        return (
            f"SubscriptionWorkload(N={self.n_sites}, "
            f"requests={self.total_requests()}, groups={len(self.groups())})"
        )
