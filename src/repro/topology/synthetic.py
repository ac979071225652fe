"""Synthetic geographic backbone generator.

For sweeps beyond the embedded datasets (e.g. Fig. 10 runs up to 20
nodes) we generate Waxman-style backbones embedded on the globe: PoPs are
placed inside continental bounding boxes with realistic weights, and link
probability decays exponentially with distance (the classic Waxman model).
A spanning tree over nearest neighbours is added first so the result is
always connected.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.topology.geo import GeoPoint, haversine_km
from repro.topology.graph import Topology
from repro.util.rng import RngStream
from repro.util.validation import check_at_least, check_probability, check_positive

#: (name, weight, lat_min, lat_max, lon_min, lon_max) — rough continental boxes.
_REGIONS: list[tuple[str, float, float, float, float, float]] = [
    ("north-america", 0.35, 25.0, 50.0, -125.0, -70.0),
    ("europe", 0.30, 36.0, 60.0, -10.0, 25.0),
    ("asia", 0.25, 1.0, 46.0, 100.0, 145.0),
    ("south-america", 0.10, -35.0, 5.0, -70.0, -40.0),
]


@dataclass
class SyntheticBackboneConfig:
    """Parameters of the synthetic backbone generator.

    Attributes
    ----------
    n_pops:
        Number of points of presence to place (>= 2).
    waxman_alpha:
        Distance-decay scale as a fraction of the maximum pairwise
        distance; larger values yield longer links.
    waxman_beta:
        Overall link density multiplier in (0, 1].
    extra_degree:
        Target mean extra degree added on top of the connectivity
        spanning tree.
    regions:
        Continental boxes with placement weights; defaults to a
        four-continent split similar to real tier-1 footprints.
    """

    n_pops: int = 24
    waxman_alpha: float = 0.25
    waxman_beta: float = 0.6
    extra_degree: float = 2.0
    regions: list[tuple[str, float, float, float, float, float]] = field(
        default_factory=lambda: list(_REGIONS)
    )

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on bad parameters."""
        check_at_least("n_pops", self.n_pops, 2)
        check_probability("waxman_beta", self.waxman_beta)
        check_positive("waxman_alpha", self.waxman_alpha)
        if self.extra_degree < 0:
            raise ConfigurationError(
                f"extra_degree must be non-negative, got {self.extra_degree}"
            )
        if not self.regions:
            raise ConfigurationError("at least one placement region is required")


def synthetic_backbone(config: SyntheticBackboneConfig, rng: RngStream) -> Topology:
    """Generate a connected, geographically-embedded backbone.

    The construction places PoPs region-by-region, connects them with a
    nearest-neighbour spanning tree (guaranteeing connectivity), then adds
    Waxman links until the target mean degree is reached.
    """
    config.validate()
    n = config.n_pops
    topology = Topology(name=f"synthetic-{n}")
    names = [name for name, *_ in config.regions]
    weights = [weight for _, weight, *_ in config.regions]
    boxes = {name: box for name, _, *box in config.regions}
    for index in range(n):
        region = rng.weighted_choice(names, weights)
        lat_min, lat_max, lon_min, lon_max = boxes[region]
        point = GeoPoint(rng.uniform(lat_min, lat_max), rng.uniform(lon_min, lon_max))
        pop_id = f"pop-{index:03d}-{region}"
        topology.add_pop(pop_id, point)
    ids = topology.pop_ids
    points = [topology.location(pop) for pop in ids]

    # Connectivity first: greedily attach each new PoP to its nearest
    # already-placed PoP, the first on ties (a randomized nearest-neighbour
    # tree).  Each pair's distance is computed once: column j holds
    # haversine_km(points[i], points[j]) for i < j at j * (j - 1) // 2 + i,
    # and the haversine is symmetric bit for bit.
    distances = array("d")
    tree_links: set[tuple[int, int]] = set()
    for j in range(1, n):
        point = points[j]
        column = [haversine_km(points[i], point) for i in range(j)]
        nearest = column.index(min(column))
        topology.add_link(ids[j], ids[nearest])
        tree_links.add((nearest, j))
        distances.extend(column)

    # Waxman extra links: P(u, v) = beta * exp(-d / (alpha * d_max)).
    # The candidates are the pairs i < j in row-major order: shuffling
    # their indices takes the same draws as shuffling the pairs.  Each
    # pair comes up once, so only a tree link can already be there.
    scale = config.waxman_alpha * max(max(distances), 1e-9)
    target_links = int(n * config.extra_degree / 2)
    row_starts = [i * n - i * (i + 1) // 2 for i in range(n - 1)]
    candidates = array("q", range(len(distances)))
    rng.shuffle(candidates)
    added = 0
    for candidate in candidates:
        if added >= target_links:
            break
        i = bisect_right(row_starts, candidate) - 1
        j = candidate - row_starts[i] + i + 1
        if (i, j) in tree_links:
            continue
        dist = distances[j * (j - 1) // 2 + i]
        probability = config.waxman_beta * math.exp(-dist / scale)
        if rng.random() < probability:
            topology.add_link(ids[i], ids[j])
            added += 1
    return topology
