"""Pluggable array backend for the dense overlay structures.

The overlay hot paths operate on two very different shapes of data:

* **scalar probes** — one ``dout[member]`` read, one ``rfc`` compare,
  one cost lookup per candidate.  CPython list indexing is several
  times faster than ``ndarray.__getitem__`` for these, so the
  authoritative storage for degree tables, limit tables and dense cost
  rows stays plain Python lists on *every* backend.
* **bulk kernels** — large-tree parent scans and per-tree data-plane
  arithmetic.  These are where numpy pays, and they are the only places
  the numpy backend diverges from the reference implementation.

Both backends are pinned bit-identical: every numpy kernel is either
elementwise float64 arithmetic (IEEE-identical to the scalar loop), a
``cumsum``-based left-to-right sum (numpy's pairwise ``np.sum`` is
*not* used anywhere), or an ``argmax``/``argmin`` first-occurrence
selection that matches the strict-inequality scalar loops.  The
equivalence suites in ``tests/core/test_backend.py`` and the scenario
digest matrix enforce this.

The backend is not configuration.  :func:`resolve_backend` selects it
from what the install offers — numpy when importable, the pure-python
reference otherwise — and each dense cost matrix binds the selection
once at construction; sessions and problems read it off their matrix.
Within the numpy backend the size-derived gates (``vector_scan_min``,
``plane_vector_min``) decide per call whether a kernel pays.  The python
backend is also the test oracle: the equivalence suites pin it through
``tests/reference_paths.py::use_array_backend``.
"""

from __future__ import annotations

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

    # -- data-plane kernels ------------------------------------------------------

    #: Minimum frame-vector length before the data-plane kernels pay off
    #: as ndarrays: below it, per-op dispatch overhead makes numpy ~2x
    #: slower than the list comprehensions (measured crossover ~64).
    plane_vector_min: float = float("inf")

    def plane_kernels(self, n_frames: int) -> "ArrayBackend":
        """The backend to run one tree's frame arithmetic on.

        Both backends produce bit-identical reports, so this is purely a
        cost decision: short frame vectors (the default 1 s sweep run is
        16 frames) stay on the list kernels even under numpy.
        """
        if n_frames < self.plane_vector_min:
            return _python_backend
        return self

    def as_vector(self, values: list[float]):
        """Adopt a list of floats as this backend's vector type."""
        return values

    def shift(self, values, delta: float):
        """Elementwise ``values + delta``."""
        return [v + delta for v in values]

    def deltas(self, a, b):
        """Elementwise ``a - b``."""
        return [x - y for x, y in zip(a, b)]

    def seq_sum(self, values) -> float:
        """Left-to-right float sum (the event-plane accumulation order)."""
        return float(sum(values))

    def vec_max(self, values) -> float:
        """Maximum of a non-empty vector."""
        return float(max(values))

    # -- sampled-plane kernels ---------------------------------------------------
    #
    # The sampled noisy plane draws per-hop jitter/loss from an
    # RngStream (never backend-native RNG, so both backends see the
    # exact same draws) and hands the post-processing to these kernels.
    # Like the data-plane kernels above, every numpy override is
    # elementwise float64 arithmetic or an order-preserving selection —
    # bit-identical to the scalar loops.

    def survivors(self, draws, threshold: float):
        """Per-draw survival mask: ``draw >= threshold``.

        Matches :class:`~repro.sim.network.LatencyNetwork`'s drop test
        (``random() < loss_probability`` drops), so a draw strictly
        below the loss probability is a loss.
        """
        return [d >= threshold for d in draws]

    def mask_and(self, a, b):
        """Elementwise boolean AND of two masks."""
        return [x and y for x, y in zip(a, b)]

    def add_vec(self, a, b):
        """Elementwise ``a + b`` of two equal-length vectors."""
        return [x + y for x, y in zip(a, b)]

    def compress(self, values, mask):
        """Order-preserving selection of ``values`` where ``mask``."""
        return [v for v, m in zip(values, mask) if m]

    def count_true(self, mask) -> int:
        """Number of true entries in a mask."""
        return sum(1 for m in mask if m)

    def masked_int_sum(self, values, mask) -> int:
        """Exact integer sum of ``values`` where ``mask``."""
        return sum(v for v, m in zip(values, mask) if m)

    def to_list(self, values) -> list:
        """Materialize a backend vector as a plain Python list."""
        return list(values)

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
    plane_vector_min = 64

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

    # -- data-plane kernels ------------------------------------------------------

    def as_vector(self, values):
        return self._np.asarray(values, dtype=self._np.float64)

    def shift(self, values, delta):
        return values + delta

    def deltas(self, a, b):
        return a - b

    def seq_sum(self, values) -> float:
        if len(values) == 0:  # pragma: no cover - trees always deliver frames
            return 0.0
        # cumsum accumulates left-to-right like the event plane's loop;
        # np.sum's pairwise reduction would not be bit-identical.
        return float(self._np.cumsum(values)[-1])

    def vec_max(self, values) -> float:
        return float(values.max())

    # -- sampled-plane kernels ---------------------------------------------------

    def survivors(self, draws, threshold: float):
        return self._np.asarray(draws, dtype=self._np.float64) >= threshold

    def mask_and(self, a, b):
        return a & b

    def add_vec(self, a, b):
        return a + b

    def compress(self, values, mask):
        return values[mask]

    def count_true(self, mask) -> int:
        return int(mask.sum())

    def masked_int_sum(self, values, mask) -> int:
        np = self._np
        return int(np.asarray(values, dtype=np.int64)[mask].sum())

    def to_list(self, values) -> list:
        return values.tolist()


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
