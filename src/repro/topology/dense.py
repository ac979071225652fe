"""Contiguous dense cost matrices for the overlay hot paths.

The overlay builders interrogate pairwise latency costs millions of
times per sweep (every parent search scans every tree member).  A
dict-of-dict matrix pays two hash lookups per probe; the
:class:`DenseCostMatrix` here stores the same data as an index-mapped
list of row lists, so a probe is two list indexings and a whole row can
be handed to a scan loop at once.

The rows and the lazy transpose are plain lists on every array backend
(scalar probes are faster on lists).  ``set_cost`` patches both in
place, so a single-entry cost tweak does not re-pay the O(N²) transpose
rebuild.
"""

from __future__ import annotations

from repro.errors import TopologyError


class DenseCostMatrix:
    """An n x n cost matrix over nodes indexed ``0..n-1``.

    Rows are plain float lists; :meth:`row` and :meth:`column` return
    the internal lists directly (no copies) and callers must treat them
    as read-only.
    """

    __slots__ = (
        "n",
        "_rows",
        "_cols",
        "array_backend",
        "edits",
    )

    def __init__(self, rows: list[list[float]]) -> None:
        # Local import: repro.core's package init imports the session
        # layer, which imports this module.
        from repro.core.backend import resolve_backend

        self.n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != self.n:
                raise TopologyError(
                    f"row {i} has {len(row)} entries, expected {self.n}"
                )
        self._rows = rows
        self._cols: list[list[float]] | None = None
        #: The array backend bound to this matrix (and, through it, to
        #: the session or problems that own it).
        self.array_backend = resolve_backend()
        #: How many times :meth:`set_cost` ran.  The matrix is shared by
        #: every problem evolved from one ancestor, so a forest built
        #: earlier can tell from this whether the costs it was checked
        #: against still stand.
        self.edits = 0

    # -- lookups -----------------------------------------------------------------

    def edge_cost(self, a: int, b: int) -> float:
        """O(1) cost between node indices ``a`` and ``b``."""
        return self._rows[a][b]

    def row(self, a: int) -> list[float]:
        """Costs *from* node ``a`` to every node (shared list, read-only)."""
        return self._rows[a]

    def rows(self) -> list[list[float]]:
        """All rows in index order (the shared lists, read-only)."""
        return self._rows

    def column(self, b: int) -> list[float]:
        """Costs *to* node ``b`` from every node (shared list, read-only).

        The transpose is materialized lazily on first use and reused, so
        repeated column scans (the parent-search hot path) stay O(1) per
        call after the first.
        """
        if self._cols is None:
            self._cols = [list(col) for col in zip(*self._rows)] if self.n else []
        return self._cols[b]

    def set_cost(self, a: int, b: int, value: float) -> None:
        """Update one entry, patching the transpose in place.

        Dropping the lazy transpose here would force the next ``column``
        call to re-pay the O(N²) rebuild for a single changed entry.
        """
        self.edits += 1
        self._rows[a][b] = value
        if self._cols is not None:
            self._cols[b][a] = value

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DenseCostMatrix(n={self.n})"
