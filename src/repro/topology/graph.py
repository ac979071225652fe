"""The backbone topology graph and its latency metric.

A :class:`Topology` is an undirected graph whose vertices are points of
presence (PoPs) with geographic coordinates and whose edges are backbone
links.  Each link's cost is a one-way latency in milliseconds, derived
from great-circle distance exactly as the paper computes edge costs
("based on the geographical distances between the nodes").

All-pairs shortest-path costs are computed with repeated Dijkstra over
integer PoP indices and cached as rows; the overlay layer consumes the
resulting dense cost matrix.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Iterator

from repro.errors import TopologyError
from repro.topology.dense import DenseCostMatrix
from repro.topology.geo import GeoPoint, haversine_km
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
        self._apsp_cache: dict[str, array] = {}

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

    def location(self, pop_id: str) -> GeoPoint:
        """Coordinates of a PoP."""
        try:
            return self._coords[pop_id]
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

    #: From this many PoPs on, one scipy sparse-graph solve (when scipy is
    #: importable) replaces the per-source heap runs; below it the heap
    #: wins, and no tier-1 topology or benchmark backbone imports scipy.
    _BULK_SSSP_MIN_POPS = 128

    def _shortest_rows(self, sources: list[str]) -> list[array]:
        """Each source's shortest-path costs to every PoP (cached).

        A row is an ``array("d")`` in :attr:`pop_ids` order, ``inf`` where
        no path exists: unlike N lists of N floats, arrays add nothing
        for the garbage collector to traverse.  With non-negative
        weights the distances are the unique fixpoint of the
        ``dist[u] + w`` relaxation whatever order equal-distance nodes
        settle in, so the heap Dijkstra and scipy's give the same rows
        bit for bit (pinned by the equivalence tests).
        """
        cache = self._apsp_cache
        missing = [s for s in dict.fromkeys(sources) if s not in cache]
        if missing:
            index = {pop: i for i, pop in enumerate(self._coords)}
            adjacency = [
                [(index[b], cost) for b, cost in nbrs.items()]
                for nbrs in self._adj.values()
            ]
            roots = [index[s] for s in missing]
            rows = None
            if len(adjacency) >= self._BULK_SSSP_MIN_POPS:
                rows = _scipy_rows(adjacency, roots)
            if rows is None:
                rows = [_dijkstra_row(adjacency, root) for root in roots]
            cache.update(zip(missing, rows))
        return [cache[s] for s in sources]

    def dense_cost_matrix(
        self, pops: Iterable[str] | None = None
    ) -> DenseCostMatrix:
        """The pairwise latency matrix as an index-mapped dense matrix.

        This is the form the overlay hot paths consume: contiguous row
        lists of plain floats with O(1) ``edge_cost`` and bulk row
        access, indexed in the order of ``pops``.  The rows are new
        lists, the caller's to keep or edit.
        """
        selected = list(pops) if pops is not None else self.pop_ids
        for a in selected:
            if a not in self._coords:
                raise TopologyError(f"unknown PoP {a!r}")
        index = {pop: i for i, pop in enumerate(self._coords)}
        columns = [index[b] for b in selected]
        rows: list[list[float]] = []
        for a, full in zip(selected, self._shortest_rows(selected)):
            row = [full[k] for k in columns]
            if _INF in row:
                b = selected[row.index(_INF)]
                raise TopologyError(f"no path from {a!r} to {b!r}")
            rows.append(row)
        return DenseCostMatrix(rows)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Topology(name={self.name!r}, pops={len(self._coords)}, "
            f"links={self.link_count()})"
        )


_INF = float("inf")


def _dijkstra_row(adjacency: list[list[tuple[int, float]]], source: int) -> array:
    """Heap Dijkstra from ``source``: the cost to every node, ``inf`` if none."""
    dist = [_INF] * len(adjacency)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, node = heappop(heap)
        if d > dist[node]:
            continue  # a stale entry: ``node`` settled at a lower cost
        for nbr, cost in adjacency[node]:
            nd = d + cost
            if nd < dist[nbr]:
                dist[nbr] = nd
                heappush(heap, (nd, nbr))
    return array("d", dist)


def _scipy_rows(
    adjacency: list[list[tuple[int, float]]], sources: list[int]
) -> list[array] | None:
    """The same rows from one scipy sparse-graph solve; None without scipy."""
    try:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra
    except ImportError:  # pragma: no cover - depends on environment
        return None
    edges = [(a, b, cost) for a, nbrs in enumerate(adjacency) for b, cost in nbrs]
    rows, cols, data = zip(*edges)
    n = len(adjacency)
    graph = csr_matrix((data, (rows, cols)), shape=(n, n))
    solved = dijkstra(graph, directed=True, indices=sources)
    return [array("d", row.tobytes()) for row in solved]

