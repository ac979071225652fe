"""Shared utilities: seeded RNG streams, units, tables, plots, validation."""

from repro.util.rng import RngStream, derive_seed
from repro.util.units import (
    LIGHT_SPEED_FIBER_KM_PER_MS,
    ROUTER_HOP_DELAY_MS,
    mbps_for_stream,
    propagation_delay_ms,
)
from repro.util.tables import Table, format_series
from repro.util.ascii_plot import line_plot
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "RngStream",
    "derive_seed",
    "LIGHT_SPEED_FIBER_KM_PER_MS",
    "ROUTER_HOP_DELAY_MS",
    "mbps_for_stream",
    "propagation_delay_ms",
    "Table",
    "format_series",
    "line_plot",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
