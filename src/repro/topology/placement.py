"""Site placement: choosing which PoPs host 3DTI sites.

The paper "randomly select[s] 3-10 nodes" from the topology for each
experiment; :func:`place_sites` does exactly that.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, TopologyError
from repro.topology.graph import Topology
from repro.util.rng import RngStream


def place_sites(topology: Topology, n_sites: int, rng: RngStream) -> list[str]:
    """Choose ``n_sites`` distinct PoPs uniformly at random to host the sites.

    ``n_sites`` must be at least one and at most the number of PoPs.
    """
    if n_sites < 1:
        raise ConfigurationError(f"n_sites must be >= 1, got {n_sites}")
    pops = topology.pop_ids
    if n_sites > len(pops):
        raise TopologyError(
            f"cannot place {n_sites} sites on a {len(pops)}-PoP backbone"
        )
    return rng.sample(pops, n_sites)
