"""Multicast trees and the overlay forest.

A :class:`MulticastTree` ``T_s`` spans the source of stream ``s`` and the
subset of requesting RPs that could be satisfied; edges are parent->child
relays.  Trees are grown strictly by attaching new leaves, so acyclicity
holds by construction; CO-RJ may later detach a leaf (Sec. 4.4), which
also preserves the tree property.

The :class:`OverlayForest` is the set of all trees plus the bookkeeping
of which requests were satisfied or rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import OverlayError
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.session.streams import StreamId


class MulticastTree:
    """One dissemination tree ``T_s`` rooted at the stream's source RP."""

    def __init__(self, stream: StreamId) -> None:
        self.stream = stream
        self.source = stream.site
        self._parent: dict[int, int] = {}
        self._children: dict[int, list[int]] = {self.source: []}
        self._cost_from_source: dict[int, float] = {self.source: 0.0}
        #: True once the source has relayed the stream to at least one
        #: other RP ("disseminated out", which releases the m-hat slot).
        self.disseminated = False

    # -- membership --------------------------------------------------------------

    def __contains__(self, node: int) -> bool:
        return node in self._children

    def receivers(self) -> list[int]:
        """Members other than the source (the satisfied subscribers)."""
        return [node for node in self._children if node != self.source]

    def __len__(self) -> int:
        return len(self._children)

    # -- structure ---------------------------------------------------------------

    def parent(self, node: int) -> int | None:
        """Parent of ``node``; None for the source or non-members."""
        return self._parent.get(node)

    def cost_from_source(self, node: int) -> float:
        """Accumulated tree-path latency from the source to ``node``."""
        try:
            return self._cost_from_source[node]
        except KeyError:
            raise OverlayError(f"{node} is not in tree {self.stream}") from None

    def path_costs(self) -> dict[int, float]:
        """Source-to-node path cost for every member (shared, read-only).

        Members iterate source-first in attach order — parents always
        precede their children.  The parent-search and data-plane hot
        paths scan this dict directly instead of calling
        :meth:`cost_from_source` per member.
        """
        return self._cost_from_source

    def parent_map(self) -> dict[int, int]:
        """Receiver -> parent for every receiver (shared, read-only)."""
        return self._parent

    def children_map(self) -> dict[int, list[int]]:
        """Member -> its children, in attach order (shared, read-only)."""
        return self._children

    def edges(self) -> Iterator[tuple[int, int]]:
        """All (parent, child) edges."""
        for child, parent in self._parent.items():
            yield parent, child

    def depth(self, node: int) -> int:
        """Number of hops from the source to ``node``."""
        if node not in self._children:
            raise OverlayError(f"{node} is not in tree {self.stream}")
        hops = 0
        current = node
        while current != self.source:
            current = self._parent[current]
            hops += 1
        return hops

    def clone(self) -> "MulticastTree":
        """An independent copy with the same attach order.

        Member order and every per-parent child order are kept — the
        parent scan breaks ties by first occurrence, so a clone must
        answer every later join exactly as the original would.
        """
        tree = MulticastTree(self.stream)
        tree._parent = dict(self._parent)
        tree._children = {
            node: list(children) for node, children in self._children.items()
        }
        tree._cost_from_source = dict(self._cost_from_source)
        tree.disseminated = self.disseminated
        return tree

    # -- mutation ----------------------------------------------------------------

    def attach(self, parent: int, child: int, edge_cost: float) -> None:
        """Attach ``child`` as a new leaf under ``parent``.

        Raises :class:`OverlayError` when ``parent`` is not a member or
        ``child`` already is one (both would corrupt the tree).
        """
        if parent not in self._children:
            raise OverlayError(
                f"parent {parent} is not in tree {self.stream}"
            )
        if child in self._children:
            raise OverlayError(f"{child} is already in tree {self.stream}")
        if not edge_cost >= 0:  # NaN fails too; inf is a legal cost
            raise OverlayError(f"edge cost {edge_cost} is not >= 0")
        self._parent[child] = parent
        self._children[parent].append(child)
        self._children[child] = []
        self._cost_from_source[child] = (
            self._cost_from_source[parent] + edge_cost
        )
        if parent == self.source:
            self.disseminated = True

    def detach_leaf(self, node: int) -> int:
        """Remove leaf ``node`` (CO-RJ victim eviction); returns its parent.

        Recomputes :attr:`disseminated` since the detached leaf may have
        been the source's only child.
        """
        if node == self.source:
            raise OverlayError(f"cannot detach the source of tree {self.stream}")
        if node not in self._children:
            raise OverlayError(f"{node} is not in tree {self.stream}")
        if self._children[node]:
            raise OverlayError(
                f"{node} has children in tree {self.stream}; only leaves detach"
            )
        parent = self._parent.pop(node)
        self._children[parent].remove(node)
        del self._children[node]
        del self._cost_from_source[node]
        self.disseminated = bool(self._children[self.source])
        return parent

    def validate(self) -> None:
        """Check structure and the dissemination flag; raises :class:`OverlayError`."""
        if self.disseminated != bool(self._children[self.source]):
            raise OverlayError(f"disseminated flag is wrong in tree {self.stream}")
        for child, parent in self._parent.items():
            if parent not in self._children:
                raise OverlayError(f"dangling parent {parent} in tree {self.stream}")
            if child not in self._children[parent]:
                raise OverlayError(
                    f"child link {parent}->{child} missing in tree {self.stream}"
                )
        # Reachability: every member must reach the source via parents.
        for node in self._children:
            seen = set()
            current = node
            while current != self.source:
                if current in seen:
                    raise OverlayError(f"cycle at {current} in tree {self.stream}")
                seen.add(current)
                if current not in self._parent:
                    raise OverlayError(
                        f"{current} unreachable from source in tree {self.stream}"
                    )
                current = self._parent[current]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MulticastTree(stream={self.stream}, members={len(self)}, "
            f"edges={len(self._parent)})"
        )


@dataclass
class OverlayForest:
    """The full overlay: one tree per constructed multicast group."""

    trees: dict[StreamId, MulticastTree] = field(default_factory=dict)
    satisfied: list[SubscriptionRequest] = field(default_factory=list)
    rejected: list[tuple[SubscriptionRequest, RejectionReason]] = field(
        default_factory=list
    )

    def tree(self, stream: StreamId) -> MulticastTree:
        """The tree for ``stream``, creating it (source-only) on first use."""
        existing = self.trees.get(stream)
        if existing is not None:
            return existing
        tree = MulticastTree(stream)
        self.trees[stream] = tree
        return tree

    def edges(self) -> Iterator[tuple[StreamId, int, int]]:
        """All (stream, parent, child) relay edges across the forest."""
        for stream, tree in self.trees.items():
            for parent, child in tree.edges():
                yield stream, parent, child

    def validate(self) -> None:
        """Validate every tree's structural invariants."""
        for tree in self.trees.values():
            tree.validate()

    def __str__(self) -> str:
        return (
            f"OverlayForest(trees={len(self.trees)}, "
            f"satisfied={len(self.satisfied)}, rejected={len(self.rejected)})"
        )
