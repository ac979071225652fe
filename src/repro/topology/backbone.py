"""Embedded PoP-level backbone datasets (the Mapnet substitute).

CAIDA's Mapnet visualized real ISP backbone maps: PoPs at real cities
joined by physical links.  The snapshot used in the paper is no longer
distributed, so we embed two datasets of the same character, built from
public city coordinates:

* ``abilene`` — the 11-PoP Internet2/Abilene research backbone that the
  paper's testbed (TEEVE, Internet2 sites) actually ran over;
* ``tier1`` — a 26-PoP global carrier-style backbone spanning North
  America, Europe, Asia-Pacific, and South America.

Link costs are derived from great-circle distance when the topology is
instantiated, exactly as the paper computes costs.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.geo import GeoPoint
from repro.topology.graph import Topology

# (pop id, latitude, longitude)
_ABILENE_POPS: list[tuple[str, float, float]] = [
    ("seattle", 47.61, -122.33),
    ("sunnyvale", 37.37, -122.04),
    ("los-angeles", 34.05, -118.24),
    ("denver", 39.74, -104.99),
    ("kansas-city", 39.10, -94.58),
    ("houston", 29.76, -95.37),
    ("atlanta", 33.75, -84.39),
    ("washington-dc", 38.91, -77.04),
    ("new-york", 40.71, -74.01),
    ("chicago", 41.88, -87.63),
    ("indianapolis", 39.77, -86.16),
]

_ABILENE_LINKS: list[tuple[str, str]] = [
    ("seattle", "sunnyvale"),
    ("seattle", "denver"),
    ("sunnyvale", "los-angeles"),
    ("sunnyvale", "denver"),
    ("los-angeles", "houston"),
    ("denver", "kansas-city"),
    ("kansas-city", "houston"),
    ("kansas-city", "indianapolis"),
    ("houston", "atlanta"),
    ("atlanta", "indianapolis"),
    ("atlanta", "washington-dc"),
    ("indianapolis", "chicago"),
    ("chicago", "new-york"),
    ("new-york", "washington-dc"),
]

_TIER1_POPS: list[tuple[str, float, float]] = [
    # North America
    ("seattle", 47.61, -122.33),
    ("palo-alto", 37.44, -122.14),
    ("los-angeles", 34.05, -118.24),
    ("denver", 39.74, -104.99),
    ("dallas", 32.78, -96.80),
    ("chicago", 41.88, -87.63),
    ("atlanta", 33.75, -84.39),
    ("miami", 25.76, -80.19),
    ("washington-dc", 38.91, -77.04),
    ("new-york", 40.71, -74.01),
    ("toronto", 43.65, -79.38),
    ("mexico-city", 19.43, -99.13),
    # Europe
    ("london", 51.51, -0.13),
    ("paris", 48.86, 2.35),
    ("amsterdam", 52.37, 4.90),
    ("frankfurt", 50.11, 8.68),
    ("madrid", 40.42, -3.70),
    ("milan", 45.46, 9.19),
    ("stockholm", 59.33, 18.07),
    # Asia-Pacific
    ("tokyo", 35.68, 139.69),
    ("seoul", 37.57, 126.98),
    ("hong-kong", 22.32, 114.17),
    ("singapore", 1.35, 103.82),
    ("sydney", -33.87, 151.21),
    # South America
    ("sao-paulo", -23.55, -46.63),
    ("buenos-aires", -34.60, -58.38),
]

_TIER1_LINKS: list[tuple[str, str]] = [
    # North American mesh
    ("seattle", "palo-alto"),
    ("seattle", "denver"),
    ("seattle", "chicago"),
    ("palo-alto", "los-angeles"),
    ("palo-alto", "denver"),
    ("los-angeles", "dallas"),
    ("denver", "dallas"),
    ("denver", "chicago"),
    ("dallas", "atlanta"),
    ("dallas", "chicago"),
    ("chicago", "toronto"),
    ("chicago", "new-york"),
    ("atlanta", "miami"),
    ("atlanta", "washington-dc"),
    ("washington-dc", "new-york"),
    ("new-york", "toronto"),
    ("los-angeles", "mexico-city"),
    ("dallas", "mexico-city"),
    # Transatlantic
    ("new-york", "london"),
    ("washington-dc", "paris"),
    ("new-york", "amsterdam"),
    # European ring
    ("london", "paris"),
    ("london", "amsterdam"),
    ("amsterdam", "frankfurt"),
    ("paris", "frankfurt"),
    ("paris", "madrid"),
    ("frankfurt", "milan"),
    ("frankfurt", "stockholm"),
    ("milan", "madrid"),
    # Transpacific and intra-Asia
    ("seattle", "tokyo"),
    ("los-angeles", "tokyo"),
    ("tokyo", "seoul"),
    ("tokyo", "hong-kong"),
    ("hong-kong", "singapore"),
    ("seoul", "hong-kong"),
    ("singapore", "sydney"),
    ("los-angeles", "sydney"),
    # Europe-Asia
    ("frankfurt", "singapore"),
    # South America
    ("miami", "sao-paulo"),
    ("sao-paulo", "buenos-aires"),
    ("mexico-city", "sao-paulo"),
]

#: Registry of embedded backbone datasets: name -> (pops, links).
BACKBONES: dict[str, tuple[list[tuple[str, float, float]], list[tuple[str, str]]]] = {
    "abilene": (_ABILENE_POPS, _ABILENE_LINKS),
    "tier1": (_TIER1_POPS, _TIER1_LINKS),
}


#: Seed for generated ``synthetic-<n>`` backbones; fixed so a name like
#: ``synthetic-256`` denotes one reproducible topology everywhere.
SYNTHETIC_BACKBONE_SEED = 9001


def load_backbone(name: str = "tier1") -> Topology:
    """Instantiate an embedded backbone dataset as a :class:`Topology`.

    Beyond the embedded datasets, ``synthetic-<n>`` (e.g.
    ``synthetic-256``) generates a deterministic Waxman backbone with
    ``n`` PoPs, which is how scenarios and ``scripts/scale_probe.py``
    scale past the 26-PoP tier-1 map.

    Raises
    ------
    TopologyError
        If ``name`` is not one of :data:`BACKBONES` or ``synthetic-<n>``.
    """
    if name.startswith("synthetic-"):
        return _synthetic_by_name(name)
    try:
        pops, links = BACKBONES[name]
    except KeyError:
        known = ", ".join(sorted(BACKBONES))
        raise TopologyError(
            f"unknown backbone {name!r}; known: {known}, synthetic-<n>"
        ) from None
    topology = Topology(name=name)
    for pop_id, lat, lon in pops:
        topology.add_pop(pop_id, GeoPoint(lat, lon))
    for a, b in links:
        topology.add_link(a, b)
    if not topology.is_connected():  # defensive: datasets above are connected
        raise TopologyError(f"backbone {name!r} is not connected")
    return topology


def _synthetic_by_name(name: str) -> Topology:
    """Generate the deterministic backbone for a ``synthetic-<n>`` name."""
    from repro.topology.synthetic import SyntheticBackboneConfig, synthetic_backbone
    from repro.util.rng import RngStream

    suffix = name[len("synthetic-"):]
    try:
        n_pops = int(suffix)
    except ValueError:
        raise TopologyError(
            f"bad synthetic backbone name {name!r}; expected synthetic-<n>"
        ) from None
    if n_pops < 2:
        raise TopologyError(f"synthetic backbone needs >= 2 PoPs, got {n_pops}")
    topology = synthetic_backbone(
        SyntheticBackboneConfig(n_pops=n_pops),
        RngStream(SYNTHETIC_BACKBONE_SEED, label=name),
    )
    topology.name = name
    return topology
