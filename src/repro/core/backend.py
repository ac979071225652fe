"""Pluggable array backend for the dense overlay structures.

The overlay hot paths operate on two very different shapes of data:

* **scalar probes** — the parent scan of every node join: one
  ``dout[member]`` read, one ``rfc`` compare, one cost lookup per
  candidate, on trees of a few to a few dozen members.  CPython list
  indexing is several times faster than ``ndarray.__getitem__`` for
  these, so degree tables, limit tables and dense cost rows are plain
  Python lists, and both backends run the one scalar scan.
* **bulk kernels** — the forest-level data-plane kernel.  This is where
  numpy pays, and it is the only place the numpy backend diverges from
  the reference implementation.

Both backends are pinned bit-identical: every numpy kernel is either
elementwise float64 arithmetic (IEEE-identical to the scalar loop) or a
``cumsum``-based left-to-right sum (numpy's pairwise ``np.sum`` is
*not* used on floats anywhere).  The equivalence suites in
``tests/core/test_backend.py`` and the scenario digest matrix enforce
this.

The backend is not configuration.  :func:`resolve_backend` selects it
from what the install offers — numpy when importable, the pure-python
reference otherwise — and each dense cost matrix binds the selection
once at construction; sessions and problems read it off their matrix.
The python backend is also the test oracle, pinned through
``tests/reference_paths.py::use_array_backend``.
"""

from __future__ import annotations

import struct

from repro.core.node_join import scan_parent_scalar
from repro.errors import ConfigurationError
from repro.util.floats import left_sum

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

    #: ``parent_scan(problem, state, tree, subscriber)``: the
    #: best attach point for ``subscriber`` in ``tree``, or None.  Every
    #: node join reaches :func:`~repro.core.node_join.scan_parent_scalar`
    #: through this name, on both backends.
    parent_scan = staticmethod(scan_parent_scalar)

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
        The sum runs strictly left to right (:func:`left_sum`), as the
        event plane records deliveries.
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
            totals.append(left_sum(latencies))
            maxima.append(max(latencies + [0.0]))
            if collect:
                delivered += latencies
        return frames, totals, maxima, sent, delivered

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name!r}>"


#: Alias with the conventional name for the fallback backend.
PythonBackend = ArrayBackend


class NumpyBackend(ArrayBackend):
    """numpy bulk kernels, pinned bit-identical to the reference.

    Every kernel here is restricted to operations with scalar-identical
    float64 semantics; see the module docstring.
    """

    name = "numpy"
    # The one parent scan, bound in this class's own dict as well so a
    # wrapper installed on it sees every join.
    parent_scan = ArrayBackend.__dict__["parent_scan"]

    def __init__(self) -> None:
        if not numpy_available():
            raise ConfigurationError("numpy backend needs numpy, which is not importable")
        self._np = _np

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
