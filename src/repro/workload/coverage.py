"""Stream-centric ("coverage") workload: every stream has subscribers.

Sec. 5.1 states the number of streams each site *has to send* — i.e.
every published stream is subscribed by at least one other site (it is
in somebody's field of view).  The natural sampling model is therefore
stream-centric: for every stream, draw the *set of subscribing sites*
(its multicast group), with group sizes governed by stream popularity:

* **random** workload — every stream is equally popular: each remote
  site joins a stream's group independently with probability
  ``interest``, plus one guaranteed subscriber;
* **Zipf** workload — the join probability of stream ``s_j^q`` scales
  with ``1/(q+1)**exponent`` (front cameras are in most FOVs), rescaled
  so the *mean* interest matches ``interest``; one subscriber is again
  guaranteed.

Per-site inbound demand is then ``streams_per_site * (1 + interest *
(N-2))``-ish, which crosses the inbound budget as N grows — producing
the paper's rising rejection curves — while every source must ship all
its streams, making source outbound capacity the contended resource
(the regime in which tree ordering and the m̂ reservation matter).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.session.session import TISession
from repro.session.streams import StreamId
from repro.util.floats import left_sum
from repro.util.rng import RngStream
from repro.workload.spec import SubscriptionWorkload


@dataclass
class CoverageWorkloadModel:
    """Stream-centric subscription sampler.

    Parameters
    ----------
    interest:
        Mean probability that a given remote site subscribes to a given
        stream (beyond the guaranteed first subscriber).
    popularity:
        ``"uniform"`` for equal per-stream interest, ``"zipf"`` for
        rank-skewed interest by local camera index.
    zipf_exponent:
        Skew of the Zipf family (ignored for uniform).
    focus_skew:
        Site-level FOV skew.  A user's field of view centres on one or
        two remote participants and covers the rest peripherally, so a
        subscriber's interest in the *sites* is itself skewed: each
        subscriber ranks the remote sites randomly and weights site
        interest by ``1/rank**focus_skew`` (normalized to mean 1).
        0 disables the skew (all remote sites equally interesting).
        The skew widens the spread of ``u_{i->j}``, which is what gives
        the criticality mechanism of CO-RJ (Sec. 4.4) its headroom.
    guarantee_coverage:
        When True (default), every stream gets at least one subscriber
        ("the number of streams each site has to send", Sec. 5.1); when
        False, unpopular streams may go unsubscribed (used by the
        Fig. 10 utilization study, where the paper's ~25 % relay share
        implies spare outbound capacity at the sources).
    """

    interest: float = 0.08
    popularity: str = "uniform"
    zipf_exponent: float = 1.0
    focus_skew: float = 0.0
    guarantee_coverage: bool = True
    #: When set, overrides ``interest`` with ``mean_subscribers/(N-1)``
    #: at generation time, holding the expected number of subscribers
    #: *per stream* constant as the session grows (each stream
    #: contributes to a bounded number of FOVs regardless of session
    #: size).  This is the Fig. 10 calibration: it keeps per-site
    #: demand ≈ ``streams_per_site * mean_subscribers`` (full outbound
    #: utilization) and stream coverage ≈ ``1 - exp(-mean_subscribers)``
    #: (spare source capacity for relaying) at every N.
    mean_subscribers: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.interest <= 1.0:
            raise ConfigurationError(
                f"interest must be in [0, 1], got {self.interest}"
            )
        if self.popularity not in ("uniform", "zipf"):
            raise ConfigurationError(
                f"popularity must be 'uniform' or 'zipf', got {self.popularity!r}"
            )
        if self.zipf_exponent <= 0:
            raise ConfigurationError(
                f"zipf_exponent must be positive, got {self.zipf_exponent}"
            )
        if self.focus_skew < 0:
            raise ConfigurationError(
                f"focus_skew must be non-negative, got {self.focus_skew}"
            )
        if self.mean_subscribers is not None and self.mean_subscribers <= 0:
            raise ConfigurationError(
                f"mean_subscribers must be positive, got {self.mean_subscribers}"
            )

    def generate(self, session: TISession, rng: RngStream) -> SubscriptionWorkload:
        """Draw one workload: a subscriber set for every published stream."""
        n = session.n_sites
        if n < 2:
            raise ConfigurationError("coverage workload needs at least 2 sites")
        focus = self._focus_weights(n, rng)
        base_interest = self.interest
        if self.mean_subscribers is not None:
            base_interest = min(1.0, self.mean_subscribers / (n - 1))
        site_sets: dict[int, set[StreamId]] = {i: set() for i in range(n)}
        for site in session.sites:
            probabilities = self._join_probabilities(
                len(site.cameras), base_interest
            )
            others = [i for i in range(n) if i != site.index]
            for stream_id, probability in zip(site.stream_ids, probabilities):
                members = [
                    other
                    for other in others
                    if rng.random() < probability * focus[other][site.index]
                ]
                if not members and self.guarantee_coverage:
                    members = [rng.choice(others)]
                for member in members:
                    site_sets[member].add(stream_id)
        return SubscriptionWorkload.from_site_sets(n, site_sets)

    def _focus_weights(self, n: int, rng: RngStream) -> list[dict[int, float]]:
        """Per-subscriber site-interest multipliers (mean 1 per subscriber)."""
        weights: list[dict[int, float]] = []
        for subscriber in range(n):
            others = [j for j in range(n) if j != subscriber]
            if self.focus_skew == 0.0 or not others:
                weights.append({j: 1.0 for j in others})
                continue
            order = rng.shuffled(others)
            raw = {
                j: 1.0 / float(rank + 1) ** self.focus_skew
                for rank, j in enumerate(order)
            }
            mean = left_sum(raw.values()) / len(raw)
            weights.append({j: raw[j] / mean for j in others})
        return weights

    def _join_probabilities(
        self, n_streams: int, base_interest: float
    ) -> list[float]:
        """Per-stream join probability, mean-calibrated to ``base_interest``."""
        if n_streams < 1:
            return []
        if self.popularity == "uniform":
            return [base_interest] * n_streams
        weights = [
            1.0 / float(q + 1) ** self.zipf_exponent for q in range(n_streams)
        ]
        mean_weight = left_sum(weights) / n_streams
        scale = base_interest / mean_weight if mean_weight > 0 else 0.0
        return [min(1.0, w * scale) for w in weights]
