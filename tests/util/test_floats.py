"""The one float sum: strictly left to right on every interpreter."""

from __future__ import annotations

import math

from repro.pubsub.service import _mean
from repro.util.floats import left_sum

# 1.0 is lost against 1e16 at the first step and survives the second;
# a compensated or exact sum keeps both.
ROW = [1e16, 1.0, -1e16, 1.0]


def test_adds_left_to_right():
    assert left_sum(ROW) == 1.0
    assert math.fsum(ROW) == 2.0


def test_takes_any_iterable_and_starts_from_float_zero():
    assert left_sum(value for value in ROW) == 1.0
    assert left_sum([]) == 0.0 and isinstance(left_sum([]), float)
    assert left_sum([1, 2]) == 3.0


def test_report_means_use_it():
    assert _mean(ROW) == 0.25
    assert _mean([]) == 0.0
