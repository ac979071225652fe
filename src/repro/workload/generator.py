"""Workload sampling: displays draw FOV-sized stream sets by popularity.

The model that generates one workload sample:

1. for every site ``i``, each of its ``displays_per_site`` displays
   independently draws ``fov_size`` *distinct* remote streams, weighted
   by the popularity family (Zipf or uniform);
2. the site-level subscription is the union over its displays — this is
   exactly the RP aggregation step of Sec. 3.2 ("each RP requests only
   those streams that are subscribed by at least one of its local
   displays").

This display-union construction produces the paper's qualitative load
curve: as N grows the pool of remote streams grows, display draws overlap
less, and the per-site subscription grows sub-linearly while per-site
resources stay constant — hence rejection ratios that rise with N.
Under Zipf, draws concentrate on popular (front-camera) streams, which
both shrinks the union and concentrates load on those streams' sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.session.session import TISession
from repro.session.streams import StreamId
from repro.util.rng import RngStream
from repro.workload.spec import SubscriptionWorkload, WorkloadSpec


class PopularityModel(Protocol):
    """Strategy giving sampling weights to candidate streams."""

    name: str

    def weights(self, streams: Sequence[StreamId]) -> list[float]:
        """One positive weight per stream."""
        ...


@dataclass
class WorkloadGenerator:
    """Draws :class:`SubscriptionWorkload` samples for a session."""

    session: TISession
    popularity: PopularityModel
    spec: WorkloadSpec = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.spec is None:
            self.spec = WorkloadSpec(popularity=self.popularity.name)
        else:
            self.spec = WorkloadSpec(
                displays_per_site=self.spec.displays_per_site,
                fov_size=self.spec.fov_size,
                popularity=self.popularity.name,
            )

    def generate(self, rng: RngStream) -> SubscriptionWorkload:
        """Draw one workload sample."""
        site_sets: dict[int, set[StreamId]] = {}
        for site in self.session.sites:
            remote = self._remote_streams(site.index)
            if not remote:
                continue
            union: set[StreamId] = set()
            for _ in range(self.spec.displays_per_site):
                union.update(self._draw_fov(remote, rng))
            site_sets[site.index] = union
        return SubscriptionWorkload.from_site_sets(self.session.n_sites, site_sets)

    # -- internals ---------------------------------------------------------------

    def _remote_streams(self, subscriber: int) -> list[StreamId]:
        """All streams published by sites other than ``subscriber``."""
        out: list[StreamId] = []
        for site in self.session.sites:
            if site.index != subscriber:
                out.extend(site.stream_ids)
        return out

    def _draw_fov(self, candidates: list[StreamId], rng: RngStream) -> list[StreamId]:
        """Sample one display's FOV: distinct streams, popularity-weighted.

        Weighted sampling without replacement via sequential draws; if the
        FOV budget exceeds the candidate pool, the whole pool is taken.
        """
        k = min(self.spec.fov_size, len(candidates))
        pool = list(candidates)
        weights = self.popularity.weights(pool)
        chosen: list[StreamId] = []
        for _ in range(k):
            pick = rng.weighted_choice(range(len(pool)), weights)
            chosen.append(pool[pick])
            pool.pop(pick)
            weights.pop(pick)
        return chosen
