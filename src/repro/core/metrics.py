"""Metrics over build results: Eq. 1, Eq. 3, utilization, load balance.

Metric fidelity notes (also in DESIGN.md):

* Eq. 1 as printed sums the per-pair ratios ``û_{i->j}/u_{i->j}`` over
  all ordered pairs, which can exceed 1 on dense workloads, while Fig. 8
  plots "average rejection ratio" values inside [0, 0.45].  We provide
  the verbatim sum (:func:`pairwise_rejection_sum`), its per-pair mean
  (:func:`mean_pairwise_rejection`, bounded by 1), and the total-request
  ratio ``Σû/Σu`` (:func:`rejection_ratio`) which the figure harnesses
  plot.
* Eq. 3 (the correlation-aware metric of Fig. 11) is implemented
  verbatim in :func:`correlation_weighted_rejection`; its normalized
  companion :func:`criticality_loss_ratio` weights every request by its
  criticality ``Q = 1/u`` and divides by the total criticality mass, so
  it is bounded by 1 and comparable across N — this is what the Fig. 11
  harness plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.base import BuildResult
from repro.util.floats import left_sum


def rejection_ratio(result: BuildResult) -> float:
    """Fraction of all requests rejected: ``Σû / Σu``."""
    total = result.total_requests
    if total == 0:
        return 0.0
    return len(result.rejected) / total


def pairwise_rejection_sum(result: BuildResult) -> float:
    """Eq. 1 verbatim: ``Σ_i Σ_{j != i} û_{i->j} / u_{i->j}``."""
    u = result.problem.u_matrix()
    u_hat = result.u_hat_matrix()
    total = 0.0
    for i, row in u.items():
        for j, u_ij in row.items():
            if u_ij > 0:
                total += u_hat.get(i, {}).get(j, 0) / u_ij
    return total


def mean_pairwise_rejection(result: BuildResult) -> float:
    """Eq. 1 normalized by the number of requesting pairs (bounded by 1)."""
    pairs = sum(len(row) for row in result.problem.u_matrix().values())
    if pairs == 0:
        return 0.0
    return pairwise_rejection_sum(result) / pairs


def correlation_weighted_rejection(result: BuildResult) -> float:
    """Eq. 3 verbatim: ``Σ_i (Σ_j û_{i->j} / u_{i->j}^2) * u_{i->x}``.

    ``u_{i->x} = min_j u_{i->j}`` over the sources node ``i`` actually
    requests from; sites with no requests contribute nothing.
    """
    u = result.problem.u_matrix()
    u_hat = result.u_hat_matrix()
    total = 0.0
    for i, row in u.items():
        if not row:
            continue
        u_min = min(row.values())
        inner = left_sum(
            u_hat.get(i, {}).get(j, 0) / (u_ij * u_ij)
            for j, u_ij in row.items()
            if u_ij > 0
        )
        total += inner * u_min
    return total


def criticality_loss_ratio(result: BuildResult) -> float:
    """Criticality-weighted rejection mass, normalized to [0, 1].

    Every request of pair (i, j) carries criticality ``Q_{i->j} =
    1/u_{i->j}``; the ratio is rejected criticality over total
    criticality: ``Σ_{ij} û_{ij} Q_{ij} / Σ_{ij} u_{ij} Q_{ij}``.  Losing
    one of many correlated streams barely moves it; losing a sole stream
    from a site moves it by a full unit — the quantity CO-RJ minimizes.
    """
    u = result.problem.u_matrix()
    u_hat = result.u_hat_matrix()
    lost = 0.0
    mass = 0.0
    for i, row in u.items():
        for j, u_ij in row.items():
            if u_ij > 0:
                q = 1.0 / u_ij
                mass += u_ij * q  # == 1 per requesting pair
                lost += u_hat.get(i, {}).get(j, 0) * q
    if mass == 0.0:
        return 0.0
    return lost / mass


@dataclass(frozen=True)
class ForestMetrics:
    """All headline metrics of one build, in one bundle."""

    algorithm: str
    n_nodes: int
    n_groups: int
    total_requests: int
    rejected_requests: int
    rejection_ratio: float
    pairwise_rejection_sum: float
    mean_pairwise_rejection: float
    correlation_weighted_rejection: float
    criticality_loss_ratio: float
    mean_out_utilization: float
    std_out_utilization: float
    mean_relay_fraction: float
    mean_in_utilization: float
    mean_path_cost_ms: float
    max_path_cost_ms: float
    mean_tree_depth: float

    @classmethod
    def of(cls, result: BuildResult) -> "ForestMetrics":
        """Compute the full metric bundle for ``result``."""
        problem = result.problem
        state = result.state
        out_utils = []
        in_utils = []
        relay_fractions = []
        relay_counts = {i: 0 for i in range(problem.n_nodes)}
        for stream, parent, _child in result.forest.edges():
            if stream.site != parent:
                relay_counts[parent] += 1
        for node in range(problem.n_nodes):
            o_limit = problem.outbound_limit(node)
            i_limit = problem.inbound_limit(node)
            if o_limit > 0:
                out_utils.append(state.dout[node] / o_limit)
                relay_fractions.append(relay_counts[node] / o_limit)
            if i_limit > 0:
                in_utils.append(state.din[node] / i_limit)
        path_costs = []
        depths = []
        for request in result.satisfied:
            tree = result.forest.trees[request.stream]
            path_costs.append(tree.cost_from_source(request.subscriber))
            depths.append(tree.depth(request.subscriber))
        return cls(
            algorithm=result.algorithm,
            n_nodes=problem.n_nodes,
            n_groups=problem.n_groups,
            total_requests=result.total_requests,
            rejected_requests=len(result.rejected),
            rejection_ratio=rejection_ratio(result),
            pairwise_rejection_sum=pairwise_rejection_sum(result),
            mean_pairwise_rejection=mean_pairwise_rejection(result),
            correlation_weighted_rejection=correlation_weighted_rejection(result),
            criticality_loss_ratio=criticality_loss_ratio(result),
            mean_out_utilization=_mean(out_utils),
            std_out_utilization=_std(out_utils),
            mean_relay_fraction=_mean(relay_fractions),
            mean_in_utilization=_mean(in_utils),
            mean_path_cost_ms=_mean(path_costs),
            max_path_cost_ms=max(path_costs) if path_costs else 0.0,
            mean_tree_depth=_mean([float(d) for d in depths]),
        )


def _mean(values: list[float]) -> float:
    if not values:
        return 0.0
    return left_sum(values) / len(values)


def _std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(left_sum([(v - mu) ** 2 for v in values]) / len(values))
