"""Site placement: choosing which PoPs host 3DTI sites.

The paper "randomly select[s] 3-10 nodes" from the topology for each
experiment; :func:`place_sites` implements that plus a deterministic
"spread" strategy (farthest-point sampling) useful for worst-case latency
studies.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError, TopologyError
from repro.topology.geo import haversine_km
from repro.topology.graph import Topology
from repro.util.rng import RngStream


def place_sites(
    topology: Topology,
    n_sites: int,
    rng: RngStream | None = None,
    strategy: str = "random",
) -> list[str]:
    """Choose ``n_sites`` distinct PoPs to host the 3DTI sites.

    Parameters
    ----------
    topology:
        The backbone to place sites on.
    n_sites:
        Number of sites; must not exceed the number of PoPs.
    rng:
        Required for the ``random`` strategy (and used to pick the seed
        PoP for ``spread``).
    strategy:
        ``"random"`` — uniform sample without replacement (the paper's
        method); ``"spread"`` — greedy farthest-point sampling by
        great-circle distance.
    """
    if n_sites < 1:
        raise ConfigurationError(f"n_sites must be >= 1, got {n_sites}")
    pops = topology.pop_ids
    if n_sites > len(pops):
        raise TopologyError(
            f"cannot place {n_sites} sites on a {len(pops)}-PoP backbone"
        )
    if strategy == "random":
        if rng is None:
            raise ConfigurationError("the 'random' strategy requires an rng")
        return rng.sample(pops, n_sites)
    if strategy == "spread":
        return _farthest_point_sample(topology, n_sites, rng)
    raise ConfigurationError(f"unknown placement strategy {strategy!r}")


def _farthest_point_sample(
    topology: Topology, n_sites: int, rng: RngStream | None
) -> list[str]:
    """Greedy farthest-point sampling over great-circle distances.

    Each PoP keeps its distance to the nearest chosen PoP, lowered by the
    newest pick only; the first PoP farthest from the chosen set wins.
    """
    pops = topology.pop_ids
    locations = [topology.location(pop) for pop in pops]
    first = rng.choice(pops) if rng is not None else pops[0]
    chosen = [first]
    taken = {first}
    nearest = [math.inf] * len(pops)
    newest = topology.location(first)
    while len(chosen) < n_sites:
        best_pop = None
        best_distance = -1.0
        for k, pop in enumerate(pops):
            if pop in taken:
                continue
            distance = haversine_km(locations[k], newest)
            if distance < nearest[k]:
                nearest[k] = distance
            if nearest[k] > best_distance:
                best_distance = nearest[k]
                best_pop = pop
        assert best_pop is not None  # n_sites <= len(pops) guarantees progress
        chosen.append(best_pop)
        taken.add(best_pop)
        newest = topology.location(best_pop)
    return chosen
