"""Gran-LTF: the granularity spectrum between tree-based and randomized.

Sec. 5.3 observes that LTF/STF/MCTF (one tree at a time) and RJ (the
whole forest at once) are two extremes of a spectrum parameterized by the
**granularity** ``g`` — the number of trees an algorithm attempts to
construct at once (``1 <= g <= F``).

Gran-LTF sorts the multicast groups by descending size (as LTF does),
then repeatedly takes the next ``g`` groups and processes the union of
their requests in a random order.  ``g = 1`` reduces to LTF and ``g = F``
to RJ (modulo the shuffle order drawn from the RNG).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError
from repro.core.base import OverlayBuilder
from repro.core.model import SubscriptionRequest
from repro.core.problem import ForestProblem
from repro.util.rng import RngStream


@dataclass
class GranularityBuilder(OverlayBuilder):
    """Gran-LTF with batch size ``granularity``.

    ``granularity`` is clamped to ``F`` at build time (so a single
    builder instance can be swept across problems of different sizes).
    """

    granularity: int = 1
    name: str = "gran-ltf"

    def __post_init__(self) -> None:
        if self.granularity < 1:
            raise ConfigurationError(
                f"granularity must be >= 1, got {self.granularity}"
            )

    def phases(
        self, problem: ForestProblem, rng: RngStream
    ) -> Iterator[list[SubscriptionRequest]]:
        groups = sorted(problem.groups, key=lambda g: (-g.size, g.stream))
        g = min(self.granularity, max(1, len(groups)))
        for start in range(0, len(groups), g):
            requests = [
                request
                for group in groups[start : start + g]
                for request in group.requests()
            ]
            rng.shuffle(requests)
            yield requests
