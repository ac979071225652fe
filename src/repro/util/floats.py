"""One float sum for every total that reaches a report, digest or decision."""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``values`` added strictly left to right, starting from ``0.0``.

    Builtin ``sum`` compensates float addition from Python 3.12 on, so
    the same totals would differ in the last bits between interpreters;
    ``math.fsum`` is exact and differs from both.  The event plane
    records deliveries in this order, and the plane kernels reproduce it.
    """
    return reduce(add, values, 0.0)
