"""Algorithm registry: look builders up by their paper names."""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.core.base import OverlayBuilder
from repro.core.correlation import CorrelatedRandomJoinBuilder
from repro.core.granularity import GranularityBuilder
from repro.core.randomized import RandomJoinBuilder
from repro.core.tree_order import (
    LargestTreeFirstBuilder,
    MinCapacityTreeFirstBuilder,
    SmallestTreeFirstBuilder,
)

_FACTORIES: dict[str, Callable[..., OverlayBuilder]] = {
    "ltf": LargestTreeFirstBuilder,
    "stf": SmallestTreeFirstBuilder,
    "mctf": MinCapacityTreeFirstBuilder,
    "rj": RandomJoinBuilder,
    "co-rj": CorrelatedRandomJoinBuilder,
    "gran-ltf": GranularityBuilder,
}


def available_algorithms() -> list[str]:
    """Names accepted by :func:`make_builder`, sorted."""
    return sorted(_FACTORIES)


def make_builder(name: str, **kwargs) -> OverlayBuilder:
    """Instantiate a builder by its paper name.

    Keyword arguments are forwarded to the builder (e.g.
    ``make_builder("gran-ltf", granularity=8)``).
    """
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        known = ", ".join(available_algorithms())
        raise ConfigurationError(
            f"unknown algorithm {name!r}; known algorithms: {known}"
        ) from None
    return factory(**kwargs)


__all__ = ["available_algorithms", "make_builder"]
