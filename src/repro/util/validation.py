"""Small argument-validation helpers.

These raise :class:`repro.errors.ConfigurationError` with a message that
names the offending parameter, keeping call sites one-liners.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0`` (NaN rejected); return it for chaining.

    Written as ``not value >= 0`` rather than ``value < 0`` so that NaN —
    for which every comparison is False — fails instead of slipping
    through as "not negative".
    """
    if not value >= 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")
    return value


def check_finite_non_negative(name: str, value: float) -> float:
    """Require a finite ``value >= 0`` (NaN and inf rejected)."""
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return check_non_negative(name, value)


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_at_least(name: str, value: int, minimum: int) -> int:
    """Require ``value >= minimum``; return it for chaining."""
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value!r}")
    return value


#: Overlay maintenance policies a control plane can run under (lives
#: here, below the core and scenario layers, so both can validate the
#: knob without import cycles; the semantics are documented in
#: :mod:`repro.core.incremental`).
REBUILD_POLICIES = ("always", "incremental")


def check_rebuild_policy(value: str) -> str:
    """Require a known rebuild policy; return it for chaining."""
    if value not in REBUILD_POLICIES:
        known = ", ".join(REBUILD_POLICIES)
        raise ConfigurationError(
            f"unknown rebuild policy {value!r}; expected one of: {known}"
        )
    return value


def check_phi_threshold(value: float) -> float:
    """Validate a φ-accrual suspicion threshold.

    ``0`` disables the adaptive detector (the static
    ``miss_threshold x heartbeat_ms`` deadline applies); any positive
    finite value arms it.  NaN, inf and negatives are configuration
    errors — a NaN threshold would silently disable every suspicion
    (``phi > NaN`` is always False), which is the worst failure mode a
    failure detector can have.
    """
    return check_finite_non_negative("phi_threshold", value)


#: Missed heartbeats the static deadline tolerates, unless configured.
MISS_THRESHOLD = 3


def check_miss_threshold_read(
    miss_threshold: int, heartbeat_ms: float, phi_threshold: float
) -> None:
    """Refuse a ``miss_threshold`` off its default that no detector reads:
    without heartbeats nothing is detected, and φ scores the cadence."""
    if miss_threshold != MISS_THRESHOLD and (heartbeat_ms <= 0 or phi_threshold > 0):
        raise ConfigurationError(
            f"miss_threshold={miss_threshold} is read only by the static "
            "heartbeat deadline: it requires heartbeat_ms > 0 and "
            "phi_threshold == 0"
        )


def check_disjoint_windows(name: str, windows) -> None:
    """Require ``[start_ms, end_ms)`` windows that do not overlap.

    ``windows`` is any iterable of objects with ``start_ms``/``end_ms``
    attributes (e.g. :class:`repro.pubsub.faults.ServerOutageWindow`).
    Overlapping or touching-out-of-order windows are rejected: two
    concurrent outages of one server have no meaning, and accepting
    them would make crash/recover timers fire out of order.
    """
    ordered = sorted(windows, key=lambda w: (w.start_ms, w.end_ms))
    for before, after in zip(ordered, ordered[1:]):
        if after.start_ms < before.end_ms:
            raise ConfigurationError(
                f"{name} windows overlap: [{before.start_ms}, {before.end_ms}) "
                f"and [{after.start_ms}, {after.end_ms})"
            )
