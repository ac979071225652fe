"""Pluggable array backend for the dense overlay structures.

The overlay hot paths operate on two very different shapes of data:

* **scalar probes** — one ``dout[member]`` read, one ``rfc`` compare,
  one cost lookup per candidate.  CPython list indexing is several
  times faster than ``ndarray.__getitem__`` for these, so the
  authoritative storage for degree tables, limit tables and dense cost
  rows stays plain Python lists on *every* backend.
* **bulk kernels** — large-tree parent scans and the forest-level
  data-plane kernel.  These are where numpy pays, and they are the only
  places the numpy backend diverges from the reference implementation.

Both backends are pinned bit-identical: every numpy kernel is either
elementwise float64 arithmetic (IEEE-identical to the scalar loop), a
``cumsum``-based left-to-right sum (numpy's pairwise ``np.sum`` is
*not* used on floats anywhere), or an ``argmax``/``argmin`` first-occurrence
selection that matches the strict-inequality scalar loops.  The
equivalence suites in ``tests/core/test_backend.py`` and the scenario
digest matrix enforce this.

The backend is not configuration.  :func:`resolve_backend` selects it
from what the install offers — numpy when importable, the pure-python
reference otherwise — and each dense cost matrix binds the selection
once at construction; sessions and problems read it off their matrix.
Within the numpy backend the size-derived gate ``vector_scan_min``
decides per scan whether the vector kernel pays (the data-plane kernel
wins at every frame count and has none).  The python backend is also the
test oracle, pinned through ``tests/reference_paths.py::use_array_backend``.
"""

from __future__ import annotations

import struct
from functools import reduce
from operator import add
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import ForestProblem
    from repro.core.state import BuilderState
    from repro.core.forest import MulticastTree
    from repro.core.node_join import ParentPolicy

__all__ = [
    "ArrayBackend",
    "PythonBackend",
    "NumpyBackend",
    "numpy_available",
    "resolve_backend",
]

_np = None
_np_checked = False


def numpy_available() -> bool:
    """True when numpy can be imported (checked once, then cached)."""
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy  # noqa: PLC0415 - optional dependency probe

            _np = numpy
        except ImportError:  # pragma: no cover - depends on environment
            _np = None
    return _np is not None


class ArrayBackend:
    """Reference (pure-Python) backend; also the fallback.

    Subclasses override the bulk kernels; the scalar reference
    implementations below define the pinned semantics.
    """

    name = "python"

    #: Minimum tree size before ``try_join`` routes the parent scan
    #: through :meth:`parent_scan` instead of the inline scalar loop.
    #: With the write-through array mirrors (``_TreeArrays`` /
    #: ``_StateArrays``) the vectorized scan does no per-scan gathers
    #: from python state and wins from ~30 members (measured crossover
    #: ~29), so the python backend never dispatches and numpy gates
    #: at 32.
    vector_scan_min: float = float("inf")

    def parent_scan(
        self,
        problem: "ForestProblem",
        state: "BuilderState",
        tree: "MulticastTree",
        subscriber: int,
        policy: "ParentPolicy",
    ) -> int | None:
        """Best attach point for ``subscriber`` in ``tree`` (or None).

        The reference semantics live in the scalar loop in
        :mod:`repro.core.node_join`; this delegates to it so the two can
        never drift.
        """
        from repro.core.node_join import scan_parent_scalar

        return scan_parent_scalar(problem, state, tree, subscriber, policy)

    # -- data-plane kernel -------------------------------------------------------
    #
    # Three calls carry an analytic data-plane run (``sim/dataplane.py``).
    # The list forms here work a row at a time and define the semantics;
    # each numpy override does the same IEEE-754 operation per element.

    def unit_floats(self, words: bytes):
        """``random()`` values from :meth:`RngStream.random_words` output.

        Each word pair ``w0, w1`` becomes ``((w0 >> 5) * 2**26 + (w1 >>
        6)) / 2**53``, CPython's own ``random()`` formula, exact at
        every step.
        """
        pairs = iter(struct.unpack(f"<{len(words) // 4}I", words))
        return [
            ((w0 >> 5) * 67108864.0 + (w1 >> 6)) / 9007199254740992.0
            for w0, w1 in zip(pairs, pairs)
        ]

    def frame_sizes(self, means, lows, highs, draws):
        """Frame sizes, one row per clock, from clock-major ``random()`` draws.

        ``max(1, int(mean * (low + (high - low) * draw)))`` per element:
        :meth:`FrameClock.sample_size_bytes` with ``uniform`` written out.
        """
        count = len(draws) // len(means)
        return [
            [
                max(1, int(mean * (low + (high - low) * draw)))
                for draw in draws[i * count : (i + 1) * count]
            ]
            for i, (mean, low, high) in enumerate(zip(means, lows, highs))
        ]

    def disseminate(
        self, times, parent_rows, hops, tree_rows, sizes,
        loss=0.0, jitter=0.0, noise=None, collect=False,
    ):
        """Delivery figures of one batch of whole multicast trees.

        One row per receiver, parents before children: ``parent_rows[r]``
        is the row of ``r``'s tree parent (``-1`` under the source, whose
        arrivals are the capture ``times``), ``hops[r]`` the cost of its
        last hop, ``tree_rows[r]`` its stream's row of ``sizes``.  A
        frame reaches ``r`` at its parent's arrival ``+ hop + jitter *
        draw`` and survives the hop when ``draw >= loss``; lost above
        ``r``, it is lost at ``r``.  ``noise`` holds the draws in row
        order, a row's loss draws for all frames before its jitter
        draws, whichever of the two are armed.

        Returns per-row lists ``(frames, totals, maxima, sent)`` —
        deliveries, their latency sum and maximum, the bytes the parent
        put on the hop — and every delivered latency when ``collect``.
        The sum runs strictly left to right, as the event plane records
        deliveries; builtin ``sum`` compensates float addition from
        Python 3.12 on and answers differently.
        """
        n = len(times)
        stride = n * ((loss > 0.0) + (jitter > 0.0))
        # Row -1 is every tree's source; None means "all frames alive".
        arrivals = [None] * len(parent_rows) + [times]
        alive = [None] * (len(parent_rows) + 1)
        frames, totals, maxima, sent, delivered = [], [], [], [], []
        for row, (above, hop) in enumerate(zip(parent_rows, hops)):
            reached = survived = alive[above]
            arrived = [a + hop for a in arrivals[above]]
            at = row * stride
            if loss > 0.0:
                survived = [draw >= loss for draw in noise[at : at + n]]
                if reached is not None:
                    survived = [a and b for a, b in zip(reached, survived)]
                at += n
            if jitter > 0.0:
                draws = noise[at : at + n]
                arrived = [a + jitter * draw for a, draw in zip(arrived, draws)]
            arrivals[row], alive[row] = arrived, survived
            row_sizes = sizes[tree_rows[row]]
            if reached is not None:
                row_sizes = [size for size, kept in zip(row_sizes, reached) if kept]
            sent.append(sum(row_sizes))
            latencies = [a - t for a, t in zip(arrived, times)]
            if survived is not None:
                latencies = [v for v, kept in zip(latencies, survived) if kept]
            frames.append(len(latencies))
            totals.append(reduce(add, latencies, 0.0))
            maxima.append(max(latencies + [0.0]))
            if collect:
                delivered += latencies
        return frames, totals, maxima, sent, delivered

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name!r}>"


#: Alias with the conventional name for the fallback backend.
PythonBackend = ArrayBackend


class _TreeArrays:
    """Attach-ordered ndarray mirror of one tree's scan inputs.

    ``members[:size]`` and ``from_source[:size]`` hold the tree's member
    ids and source-to-member path costs in exactly the iteration order of
    ``MulticastTree.path_costs()`` (source first, then attach order; a
    detach shifts the tail left, matching dict deletion).  The tree
    write-throughs on :meth:`MulticastTree.attach` /
    :meth:`MulticastTree.detach_leaf` keep the mirror current, so the
    vectorized parent scan never re-gathers the member list per scan —
    the per-scan cost drops from O(members) python-loop gathers to pure
    fancy indexing.

    Capacity doubles on append (amortized O(1)); costs are stored as the
    exact float64 the attach computed, so the mirror is bit-identical to
    the dict it shadows.
    """

    __slots__ = ("_np", "members", "from_source", "size")

    def __init__(self, np_mod, tree: "MulticastTree") -> None:
        self._np = np_mod
        costs = tree.path_costs()
        n = len(costs)
        cap = max(16, 2 * n)
        self.members = np_mod.empty(cap, dtype=np_mod.intp)
        self.from_source = np_mod.empty(cap, dtype=np_mod.float64)
        self.members[:n] = np_mod.fromiter(costs.keys(), dtype=np_mod.intp, count=n)
        self.from_source[:n] = np_mod.fromiter(
            costs.values(), dtype=np_mod.float64, count=n
        )
        self.size = n

    def append(self, node: int, cost_from_source: float) -> None:
        n = self.size
        if n == len(self.members):
            self._grow()
        self.members[n] = node
        self.from_source[n] = cost_from_source
        self.size = n + 1

    def _grow(self) -> None:
        np_mod = self._np
        cap = 2 * len(self.members)
        members = np_mod.empty(cap, dtype=np_mod.intp)
        from_source = np_mod.empty(cap, dtype=np_mod.float64)
        n = self.size
        members[:n] = self.members[:n]
        from_source[:n] = self.from_source[:n]
        self.members = members
        self.from_source = from_source

    def remove(self, node: int) -> None:
        n = self.size
        members = self.members
        idx = int(self._np.nonzero(members[:n] == node)[0][0])
        members[idx : n - 1] = members[idx + 1 : n]
        self.from_source[idx : n - 1] = self.from_source[idx + 1 : n]
        self.size = n - 1


class _StateArrays:
    """Full-length int64 mirrors of a builder state's degree tables.

    Construction snapshots ``state.dout`` / ``state.m_hat`` and installs
    the arrays as those lists' write-through mirrors (the lists are
    ``_MirroredCounts``), so every subsequent write — the builder choke
    points and direct test pokes alike — updates both.  The parent scan
    then reads ``dout[members]`` / ``m_hat[members]`` as single
    fancy-index gathers instead of a python loop over the authoritative
    lists.
    """

    __slots__ = ("dout", "m_hat")

    def __init__(self, np_mod, state: "BuilderState") -> None:
        self.dout = np_mod.asarray(state.dout, dtype=np_mod.int64)
        self.m_hat = np_mod.asarray(state.m_hat, dtype=np_mod.int64)
        state.dout.mirror = self.dout
        state.m_hat.mirror = self.m_hat


class NumpyBackend(ArrayBackend):
    """numpy bulk kernels, pinned bit-identical to the reference.

    Every kernel here is restricted to operations with scalar-identical
    float64 semantics; see the module docstring.
    """

    name = "numpy"
    vector_scan_min = 32

    def __init__(self) -> None:
        if not numpy_available():
            raise ConfigurationError("numpy backend needs numpy, which is not importable")
        self._np = _np

    def outbound_limits_array(self, problem: "ForestProblem"):
        """int64 mirror of ``problem``'s outbound bounds (lazy, cached on it).

        The problem owns the array next to the list it mirrors;
        :meth:`ForestProblem.set_outbound_limit` drops it, so a cached
        array can never go stale.
        """
        arr = problem._out_limits_arr
        if arr is None:
            arr = problem._out_limits_arr = self._np.asarray(
                problem.outbound_limits(), dtype=self._np.int64
            )
        return arr

    def column_mirror(self, rows: list[list[float]]):
        """``rows`` transposed into a C-contiguous float64 ndarray, so a
        column gather in the parent scan does not stride across a view."""
        return self._np.asarray(rows, dtype=self._np.float64).T.copy()

    def tree_arrays(self, tree) -> _TreeArrays:
        """The attach-ordered member/cost mirror of ``tree`` (lazy).

        Created (one O(members) backfill) on a tree's first vectorized
        scan; the tree's mutation choke points write through afterwards.
        """
        arrays = tree._arrays
        if arrays is None:
            arrays = tree._arrays = _TreeArrays(self._np, tree)
        return arrays

    def state_arrays(self, state) -> _StateArrays:
        """The int64 degree-table mirror of ``state`` (lazy)."""
        arrays = state._arrays
        if arrays is None:
            arrays = state._arrays = _StateArrays(self._np, state)
        return arrays

    def parent_scan(self, problem, state, tree, subscriber, policy):
        from repro.core.node_join import ParentPolicy

        np = self._np
        arrays = self.tree_arrays(tree)
        n = arrays.size
        members = arrays.members[:n]
        from_source = arrays.from_source[:n]
        st = self.state_arrays(state)
        col = problem.dense_cost_matrix().column_array(subscriber)
        limits = self.outbound_limits_array(problem)[members]
        degrees = st.dout[members]
        path_cost = from_source + col[members]
        eligible = (degrees < limits) & (path_cost < problem.latency_bound_ms)
        if policy is ParentPolicy.FIRST_FIT:
            hits = np.flatnonzero(eligible)
            return int(members[hits[0]]) if hits.size else None
        if policy is ParentPolicy.MIN_COST:
            masked = np.where(eligible, path_cost, np.inf)
            best = int(np.argmin(masked))
            return int(members[best]) if np.isfinite(masked[best]) else None
        # MAX_RFC.  The scalar loop special-cases the source: when the
        # source has not disseminated yet it becomes the provisional best
        # *without* entering the rfc competition, and any member with
        # rfc > 0 (strict) takes over.  argmax is first-occurrence, which
        # matches the strict-> scan in attach order.
        reservations = st.m_hat[members]
        rfc = limits - degrees - reservations
        source = tree.source
        fallback = None
        in_competition = eligible
        if not tree.disseminated:
            is_source = members == source
            src_hits = np.flatnonzero(is_source & eligible)
            if src_hits.size:
                fallback = source
            in_competition = eligible & ~is_source
        masked = np.where(in_competition, rfc, 0)
        best = int(np.argmax(masked))
        if masked[best] > 0:
            return int(members[best])
        return fallback

    # -- data-plane kernel -------------------------------------------------------

    def unit_floats(self, words: bytes):
        np = self._np
        raw = np.frombuffer(words, dtype="<u4")
        return ((raw[0::2] >> 5) * 67108864.0 + (raw[1::2] >> 6)) / 9007199254740992.0

    def frame_sizes(self, means, lows, highs, draws):
        np = self._np
        mean, low, high = (
            np.asarray(column, dtype=np.float64)[:, None]
            for column in (means, lows, highs)
        )
        scale = low + (high - low) * draws.reshape(len(means), -1)
        return np.maximum(1, (mean * scale).astype(np.int64))

    def disseminate(
        self, times, parent_rows, hops, tree_rows, sizes,
        loss=0.0, jitter=0.0, noise=None, collect=False,
    ):
        """The reference recurrence, one elementwise op per tree *level*.

        A row depends only on its parent's, so all rows whose parents
        are placed move together: a level of the whole batch is one
        ``(rows x frames)`` add.  The sources share one extra last row —
        the capture times, every frame alive — where parent row ``-1``
        points.  Lost frames stay in the matrix as ``0.0`` latencies,
        which a left-to-right sum passes over (``x + 0.0 == x``);
        ``cumsum`` is that sum, pairwise ``sum`` / ``add.reduce`` are not.
        """
        np = self._np
        times = np.asarray(times, dtype=np.float64)
        n = times.size
        above = np.asarray(parent_rows, dtype=np.intp)
        hop = np.asarray(hops, dtype=np.float64)[:, None]
        tree = np.asarray(tree_rows, dtype=np.intp)
        alive = wobble = None
        if noise is not None:
            noise = noise.reshape(above.size, -1, n)
            if loss > 0.0:
                alive = np.ones((above.size + 1, n), dtype=bool)
                alive[:-1] = noise[:, 0] >= loss
            if jitter > 0.0:
                wobble = jitter * noise[:, -1]
        arrivals = np.empty((above.size + 1, n))
        arrivals[-1] = times
        placed = np.zeros(above.size + 1, dtype=bool)
        placed[-1] = True
        sent = sizes.sum(axis=1)[tree]
        while True:
            rows = np.flatnonzero(placed[above] & ~placed[:-1])
            if not rows.size:
                break
            placed[rows] = True
            parents = above[rows]
            block = arrivals[parents] + hop[rows]
            if wobble is not None:
                block += wobble[rows]
            arrivals[rows] = block
            if alive is not None:
                reached = alive[parents]
                sent[rows] = (reached * sizes[tree[rows]]).sum(axis=1)
                alive[rows] &= reached
        latencies = delivered = arrivals[:-1] - times
        if alive is None:
            frames = [n] * above.size
        else:
            alive = alive[:-1]
            frames = alive.sum(axis=1).tolist()
            delivered = latencies[alive]
            latencies = np.where(alive, latencies, 0.0)
        # Ascending: the percentile sort downstream then only has a few
        # sorted runs to merge.
        delivered = np.sort(delivered, axis=None).tolist() if collect else []
        totals = np.cumsum(latencies, axis=1)[:, -1].tolist()
        maxima = np.maximum(latencies.max(axis=1), 0.0).tolist()
        return frames, totals, maxima, sent.tolist(), delivered


_python_backend = ArrayBackend()
_selected: ArrayBackend | None = None


def resolve_backend() -> ArrayBackend:
    """The array backend of this install: numpy when importable, else python.

    Decided once per process; dense cost matrices bind the result at
    construction, so one session never mixes backends.
    """
    global _selected
    if _selected is None:
        _selected = NumpyBackend() if numpy_available() else _python_backend
    return _selected
