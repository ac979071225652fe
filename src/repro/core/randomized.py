"""The randomized algorithm RJ ("Random Join", Sec. 4.3.3).

RJ simply randomizes **all** requests of the whole forest, with no
prioritization of any tree — granularity ``F`` in the spectrum of
Sec. 5.3.  Each request is still processed by the basic node-join
algorithm.  The paper finds that this achieves the best load balancing
in the dense 3DTI setting: a node congested early in one tree no longer
dooms the trees constructed after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.base import OverlayBuilder
from repro.core.model import SubscriptionRequest
from repro.core.problem import ForestProblem
from repro.util.rng import RngStream


@dataclass
class RandomJoinBuilder(OverlayBuilder):
    """RJ: one global phase with every request shuffled together.

    Every group opens at its first request, early in the shuffle, so
    nearly every source's first-dissemination slot is reserved long
    before its tree fills — tree-at-a-time algorithms cannot do this for
    trees they have not reached, which is the structural reason RJ
    avoids whole-tree losses.
    """

    name: str = "rj"

    def phases(
        self, problem: ForestProblem, rng: RngStream
    ) -> Iterator[list[SubscriptionRequest]]:
        requests = problem.all_requests()
        rng.shuffle(requests)
        yield requests
