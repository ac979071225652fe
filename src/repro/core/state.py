"""Shared builder state: degrees and the reservation mechanism.

The forest's trees share each node's bandwidth, so the builder tracks
cross-tree state:

* ``din / dout`` — actual in/out degree of every RP across the forest;
* ``m_hat`` — the paper's ``m̂_i``: streams that originate at ``i``, are
  subscribed by at least one other RP, but have *not yet been
  disseminated out* to any node.  One outbound slot per such stream is
  reserved so a whole tree cannot fail because its source was saturated
  by other trees (Sec. 4.3.1);
* ``rfc_i = O_i - dout_i - m̂_i`` — remaining forwarding capacity, the
  load-balancing key of the basic node-join algorithm.
"""

from __future__ import annotations

from repro.errors import OverlayError
from repro.core.forest import MulticastTree
from repro.core.problem import ForestProblem
from repro.session.streams import StreamId


class BuilderState:
    """Cross-tree degree and reservation accounting for one build.

    **Reservation scope.**  ``m̂`` counts streams "not yet disseminated
    out ... in the existing forest" among the groups *opened* so far:
    a builder calls :meth:`open_group` when a group's first request is
    processed, so a tree-at-a-time algorithm reserves nothing yet for
    trees it has not reached.  This is what makes granularity matter
    (Sec. 5.3): small granularity lets early trees consume the outbound
    capacity later sources would have needed, causing whole-tree
    failures.
    """

    def __init__(self, problem: ForestProblem) -> None:
        # Flat lists indexed by node id: the parent-search inner loop
        # probes these per candidate, so they must be one C-level
        # indexing, not a hash lookup.
        n = problem.n_nodes
        self.din: list[int] = [0] * n
        self.dout: list[int] = [0] * n
        self.m_hat: list[int] = [0] * n
        self._opened: set[StreamId] = set()
        self._bind(problem)

    def _bind(self, problem: ForestProblem) -> None:
        """Point the per-problem tables at ``problem``."""
        self.problem = problem
        # m_i is the static paper quantity (streams of i subscribed by
        # >= 1 other RP), precomputed per problem; m̂_i only grows as
        # groups are opened.
        self.m: list[int] = list(problem.m_table())
        self._in_limits = problem.inbound_limits()
        self._out_limits = problem.outbound_limits()
        dense = problem.dense_cost_matrix()
        #: The tables as they stood when this state was bound: what
        #: :meth:`built_against` compares a later problem with.
        self._tables = (
            dense,
            dense.edits,
            list(self._in_limits),
            list(self._out_limits),
            problem.latency_bound_ms,
        )

    def carried_to(self, problem: ForestProblem) -> "BuilderState":
        """A state for ``problem`` that starts from this one's ledger.

        The degree tables, ``m̂`` and the opened set are copied (this
        state is left untouched).
        """
        state = BuilderState.__new__(BuilderState)
        state.din = list(self.din)
        state.dout = list(self.dout)
        state.m_hat = list(self.m_hat)
        state._opened = set(self._opened)
        state._bind(problem)
        return state

    def built_against(self, problem: ForestProblem) -> bool:
        """True when ``problem``'s tables are provably the ones bound here.

        Same cost matrix object with no ``set_cost`` since, equal degree
        bounds, equal latency bound: an edge that fitted this state's
        problem then fits ``problem`` now.
        """
        dense, edits, in_limits, out_limits, bound = self._tables
        return (
            problem.dense_cost_matrix() is dense
            and dense.edits == edits
            and problem.latency_bound_ms == bound
            and problem.inbound_limits() == in_limits
            and problem.outbound_limits() == out_limits
        )

    # -- reservation scope ---------------------------------------------------------

    def open_group(self, stream: StreamId) -> None:
        """Begin constructing ``stream``'s tree: reserve its source slot.

        Idempotent: opening an already-open group is a no-op.
        """
        if stream in self._opened:
            return
        self._opened.add(stream)
        self.m_hat[stream.site] += 1

    def opened(self) -> set[StreamId]:
        """Every stream :meth:`open_group` was called for (shared, read-only)."""
        return self._opened

    # -- queries -----------------------------------------------------------------

    def inbound_free(self, node: int) -> bool:
        """True while ``din_i < I_i``."""
        return self.din[node] < self._in_limits[node]

    def outbound_free(self, node: int) -> bool:
        """True while ``dout_i < O_i``."""
        return self.dout[node] < self._out_limits[node]

    # -- mutations ---------------------------------------------------------------

    def record_attach(self, tree: MulticastTree, parent: int, child: int) -> None:
        """Account for a new tree edge ``parent -> child``.

        Must be called *after* :meth:`MulticastTree.attach` so the tree's
        dissemination flag reflects the new edge.  When the edge is the
        first dissemination of the tree's stream, the source's reserved
        slot is released (``m̂`` decremented) — the reservation was spent
        on exactly this edge.
        """
        self.dout[parent] += 1
        self.din[child] += 1
        if parent == tree.source and len(tree.children_map()[parent]) == 1:
            self.m_hat[tree.source] -= 1
            if self.m_hat[tree.source] < 0:
                raise OverlayError(
                    f"reservation underflow at node {tree.source} "
                    f"for stream {tree.stream}"
                )

    def record_detach(self, tree: MulticastTree, parent: int, child: int) -> None:
        """Account for a removed leaf edge (CO-RJ victim eviction).

        If the source no longer relays the stream to anyone, the stream
        is once again "not disseminated" and its reservation slot must be
        re-established.
        """
        self.dout[parent] -= 1
        self.din[child] -= 1
        if self.dout[parent] < 0 or self.din[child] < 0:
            raise OverlayError(
                f"degree underflow removing edge {parent}->{child} "
                f"for stream {tree.stream}"
            )
        if parent == tree.source and not tree.disseminated:
            self.m_hat[tree.source] += 1

    def forget_tree(self, tree: MulticastTree) -> None:
        """Un-account a whole tree: every edge, and its group's opening.

        The inverse of :meth:`open_group` plus the tree's attaches — the
        reservation the group still held (opened, not yet disseminated)
        is released with it.  A degree or ``m̂`` that would go negative
        (a tree forgotten twice) raises :class:`OverlayError`.
        """
        din, dout = self.din, self.dout
        for parent, child in tree.edges():
            dout[parent] -= 1
            din[child] -= 1
            if dout[parent] < 0 or din[child] < 0:
                raise OverlayError(
                    f"degree underflow forgetting edge {parent}->{child} "
                    f"for stream {tree.stream}"
                )
        if tree.stream in self._opened:
            self._opened.discard(tree.stream)
            if not tree.disseminated:
                self.m_hat[tree.source] -= 1
                if self.m_hat[tree.source] < 0:
                    raise OverlayError(f"reservation underflow in {tree.stream}")

    # -- diagnostics ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`OverlayError` if any degree bound is violated."""
        for node in range(self.problem.n_nodes):
            if self.din[node] < 0 or self.dout[node] < 0:
                raise OverlayError(f"negative degree at node {node}")
            if self.din[node] > self._in_limits[node]:
                raise OverlayError(
                    f"node {node} exceeds inbound bound: "
                    f"{self.din[node]} > {self._in_limits[node]}"
                )
            if self.dout[node] > self._out_limits[node]:
                raise OverlayError(
                    f"node {node} exceeds outbound bound: "
                    f"{self.dout[node]} > {self._out_limits[node]}"
                )
            if self.m_hat[node] < 0:
                raise OverlayError(f"negative m̂ at node {node}")
