"""Internet topology substrate (the paper's Mapnet stand-in).

The evaluation in the paper selects 3-10 nodes from a real Internet
topology (CAIDA Mapnet) and derives edge costs from geographic distance.
The Mapnet snapshot is no longer distributed, so this package provides:

* :mod:`repro.topology.backbone` — embedded PoP-level backbone datasets
  with real public city coordinates (an Internet2/Abilene-like national
  research network and a tier-1-like global carrier);
* :mod:`repro.topology.synthetic` — a geographic Waxman generator for
  arbitrarily sized backbones;
* :mod:`repro.topology.graph` — the :class:`Topology` graph with
  Dijkstra-based all-pairs latency costs;
* :mod:`repro.topology.placement` — random site placement.

The overlay-construction algorithms consume only the resulting pairwise
RP-to-RP cost matrix, so any geographically-embedded connected graph
exercises the identical code paths as the original Mapnet data.
"""

from repro.topology.dense import DenseCostMatrix
from repro.topology.geo import GeoPoint, haversine_km
from repro.topology.graph import Link, Topology
from repro.topology.backbone import BACKBONES, load_backbone
from repro.topology.synthetic import SyntheticBackboneConfig, synthetic_backbone
from repro.topology.placement import place_sites

__all__ = [
    "DenseCostMatrix",
    "GeoPoint",
    "haversine_km",
    "Link",
    "Topology",
    "BACKBONES",
    "load_backbone",
    "SyntheticBackboneConfig",
    "synthetic_backbone",
    "place_sites",
]
