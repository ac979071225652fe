"""The backbone topology graph and its latency metric.

A :class:`Topology` is an undirected graph whose vertices are points of
presence (PoPs) with geographic coordinates and whose edges are backbone
links.  Each link's cost is a one-way latency in milliseconds, derived
from great-circle distance exactly as the paper computes edge costs
("based on the geographical distances between the nodes").

All-pairs shortest-path costs are computed with repeated Dijkstra and
cached; the overlay layer consumes the resulting dense cost matrix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.errors import TopologyError
from repro.topology.dense import DenseCostMatrix
from repro.topology.geo import GeoPoint, haversine_km
from repro.util.floats import left_sum
from repro.util.units import propagation_delay_ms


@dataclass(frozen=True)
class Link:
    """An undirected backbone link between two PoPs with a latency cost."""

    a: str
    b: str
    cost_ms: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-loop link at PoP {self.a!r}")
        if self.cost_ms < 0:
            raise TopologyError(f"negative link cost: {self.cost_ms}")

    def other(self, node: str) -> str:
        """Return the endpoint that is not ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"{node!r} is not an endpoint of {self}")


class Topology:
    """An undirected, geographically-embedded backbone graph.

    Parameters
    ----------
    name:
        Identifier used in diagnostics and experiment reports.
    """

    def __init__(self, name: str = "backbone") -> None:
        self.name = name
        self._coords: dict[str, GeoPoint] = {}
        self._adj: dict[str, dict[str, float]] = {}
        self._apsp_cache: dict[str, dict[str, float]] = {}

    # -- construction ------------------------------------------------------------

    def add_pop(self, pop_id: str, location: GeoPoint) -> None:
        """Register a PoP.  Re-adding an existing id is an error."""
        if pop_id in self._coords:
            raise TopologyError(f"duplicate PoP id {pop_id!r}")
        self._coords[pop_id] = location
        self._adj[pop_id] = {}
        self._apsp_cache.clear()

    def add_link(self, a: str, b: str, cost_ms: float | None = None) -> Link:
        """Connect two PoPs.

        If ``cost_ms`` is omitted it is derived from the great-circle
        distance between the endpoints (propagation at 2/3 c plus one
        router hop), matching the paper's distance-based edge costs.
        """
        for node in (a, b):
            if node not in self._coords:
                raise TopologyError(f"unknown PoP {node!r}")
        if a == b:
            raise TopologyError(f"self-loop link at PoP {a!r}")
        if cost_ms is None:
            km = haversine_km(self._coords[a], self._coords[b])
            cost_ms = propagation_delay_ms(km, hops=1)
        if cost_ms < 0:
            raise TopologyError(f"negative link cost: {cost_ms}")
        self._adj[a][b] = cost_ms
        self._adj[b][a] = cost_ms
        self._apsp_cache.clear()
        return Link(a, b, cost_ms)

    # -- inspection --------------------------------------------------------------

    @property
    def pop_ids(self) -> list[str]:
        """All PoP identifiers, in insertion order."""
        return list(self._coords)

    def __len__(self) -> int:
        return len(self._coords)

    def __contains__(self, pop_id: str) -> bool:
        return pop_id in self._coords

    def location(self, pop_id: str) -> GeoPoint:
        """Coordinates of a PoP."""
        try:
            return self._coords[pop_id]
        except KeyError:
            raise TopologyError(f"unknown PoP {pop_id!r}") from None

    def neighbors(self, pop_id: str) -> Mapping[str, float]:
        """Adjacent PoPs and link costs."""
        try:
            return dict(self._adj[pop_id])
        except KeyError:
            raise TopologyError(f"unknown PoP {pop_id!r}") from None

    def links(self) -> Iterator[Link]:
        """Iterate each undirected link exactly once."""
        for a, nbrs in self._adj.items():
            for b, cost in nbrs.items():
                if a < b:
                    yield Link(a, b, cost)

    def link_count(self) -> int:
        """Number of undirected links."""
        return sum(1 for _ in self.links())

    def is_connected(self) -> bool:
        """True when every PoP is reachable from every other PoP."""
        if not self._coords:
            return True
        start = next(iter(self._coords))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nbr in self._adj[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen) == len(self._coords)

    # -- shortest paths ----------------------------------------------------------

    #: Below this many PoPs the pure-Python Dijkstra wins (and every
    #: tier-1 topology stays on the reference path); above it, a single
    #: scipy sparse-graph solve replaces per-source heap runs when scipy
    #: is importable.
    _BULK_SSSP_MIN_POPS = 128

    def _bulk_shortest_costs(self, sources: Iterable[str]) -> None:
        """Pre-fill the APSP cache for ``sources`` in one sparse solve.

        Purely an accelerator: scipy's Dijkstra performs the identical
        ``dist[u] + w`` float relaxation, and with non-negative weights
        the per-node distances are the unique fixpoint of that
        recurrence — bit-for-bit equal to :meth:`shortest_costs_from`
        (pinned by the equivalence test).  No-ops (leaving the reference
        path in charge) on small graphs or when scipy is missing.
        """
        missing = [s for s in sources if s not in self._apsp_cache]
        if not missing or len(self._coords) < self._BULK_SSSP_MIN_POPS:
            return
        try:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import dijkstra
        except ImportError:  # pragma: no cover - depends on environment
            return
        pops = list(self._coords)
        index = {pop: i for i, pop in enumerate(pops)}
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for a, nbrs in self._adj.items():
            ia = index[a]
            for b, cost in nbrs.items():
                rows.append(ia)
                cols.append(index[b])
                data.append(cost)
        graph = csr_matrix(
            (data, (rows, cols)), shape=(len(pops), len(pops))
        )
        dist = dijkstra(
            graph, directed=True, indices=[index[s] for s in missing]
        )
        unreachable = float("inf")
        for source, row in zip(missing, dist):
            self._apsp_cache[source] = {
                pops[j]: float(row[j])
                for j in range(len(pops))
                if row[j] != unreachable
            }

    def shortest_costs_from(self, source: str) -> Mapping[str, float]:
        """Dijkstra single-source latency costs (cached).

        Returns the cached row itself wrapped read-only — callers on the
        sweep hot path hit this per sample, and copying the whole row
        per hit dominated profile time.  Use ``dict(...)`` for a
        mutable copy.
        """
        if source not in self._coords:
            raise TopologyError(f"unknown PoP {source!r}")
        cached = self._apsp_cache.get(source)
        if cached is not None:
            return MappingProxyType(cached)
        dist: dict[str, float] = {source: 0.0}
        heap: list[tuple[float, str]] = [(0.0, source)]
        done: set[str] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for nbr, cost in self._adj[node].items():
                nd = d + cost
                if nd < dist.get(nbr, float("inf")):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
        self._apsp_cache[source] = dist
        return MappingProxyType(dist)

    def cost_ms(self, a: str, b: str) -> float:
        """Shortest-path one-way latency between two PoPs."""
        if a == b:
            return 0.0
        costs = self.shortest_costs_from(a)
        try:
            return costs[b]
        except KeyError:
            raise TopologyError(f"no path from {a!r} to {b!r}") from None

    def cost_matrix(self, pops: Iterable[str] | None = None) -> dict[str, dict[str, float]]:
        """Dense pairwise latency matrix restricted to ``pops``.

        This is the object the overlay layer consumes: a symmetric
        mapping ``matrix[a][b] -> ms`` over the selected PoPs.
        """
        selected = list(pops) if pops is not None else self.pop_ids
        for node in selected:
            if node not in self._coords:
                raise TopologyError(f"unknown PoP {node!r}")
        self._bulk_shortest_costs(selected)
        matrix: dict[str, dict[str, float]] = {}
        for a in selected:
            costs = self.shortest_costs_from(a)
            row: dict[str, float] = {}
            for b in selected:
                if a == b:
                    row[b] = 0.0
                elif b in costs:
                    row[b] = costs[b]
                else:
                    raise TopologyError(f"no path from {a!r} to {b!r}")
            matrix[a] = row
        return matrix

    def dense_cost_matrix(
        self, pops: Iterable[str] | None = None
    ) -> DenseCostMatrix:
        """The pairwise latency matrix as an index-mapped dense matrix.

        This is the form the overlay hot paths consume: contiguous row
        lists with O(1) ``edge_cost`` and bulk row access, labelled by
        PoP id in the order of ``pops``.
        """
        selected = list(pops) if pops is not None else self.pop_ids
        for a in selected:
            if a not in self._coords:
                raise TopologyError(f"unknown PoP {a!r}")
        self._bulk_shortest_costs(selected)
        rows: list[list[float]] = []
        for a in selected:
            costs = self.shortest_costs_from(a)
            row: list[float] = []
            for b in selected:
                if a == b:
                    row.append(0.0)
                elif b in costs:
                    row.append(costs[b])
                else:
                    raise TopologyError(f"no path from {a!r} to {b!r}")
            rows.append(row)
        return DenseCostMatrix(rows, labels=selected)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Topology(name={self.name!r}, pops={len(self._coords)}, "
            f"links={self.link_count()})"
        )


@dataclass
class TopologyStats:
    """Summary statistics of a topology, for reports and sanity tests."""

    pops: int
    links: int
    mean_link_cost_ms: float
    max_link_cost_ms: float
    diameter_ms: float = field(default=0.0)

    @classmethod
    def of(cls, topology: Topology) -> "TopologyStats":
        """Compute stats (including latency diameter) for ``topology``."""
        link_costs = [link.cost_ms for link in topology.links()]
        if not link_costs:
            return cls(pops=len(topology), links=0, mean_link_cost_ms=0.0, max_link_cost_ms=0.0)
        diameter = 0.0
        for src in topology.pop_ids:
            costs = topology.shortest_costs_from(src)
            diameter = max(diameter, max(costs.values()))
        return cls(
            pops=len(topology),
            links=len(link_costs),
            mean_link_cost_ms=left_sum(link_costs) / len(link_costs),
            max_link_cost_ms=max(link_costs),
            diameter_ms=diameter,
        )
