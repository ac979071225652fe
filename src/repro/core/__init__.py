"""Overlay forest construction — the paper's primary contribution.

Given the global subscription workload, construct one multicast tree per
subscribed stream over the RP nodes, subject to per-node in/out degree
bounds and a source-to-subscriber latency bound, minimizing the request
rejection ratio (Sec. 4.2; NP-complete per Wang & Crowcroft).

Contents map directly onto the paper:

* :mod:`repro.core.model` / :mod:`repro.core.problem` — notation
  (Table 1) and the Forest Construction Problem;
* :mod:`repro.core.forest` / :mod:`repro.core.state` — multicast
  trees/forest and the shared builder state (degrees, reservations);
* :mod:`repro.core.node_join` — the basic node-join algorithm
  (Appendix A, worked example Fig. 6);
* :mod:`repro.core.tree_order` — LTF, STF, MCTF (Sec. 4.3.2);
* :mod:`repro.core.randomized` — RJ (Sec. 4.3.3);
* :mod:`repro.core.granularity` — the Gran-LTF spectrum (Sec. 5.3);
* :mod:`repro.core.correlation` — criticality and CO-RJ (Sec. 4.4,
  worked example Fig. 7);
* :mod:`repro.core.metrics` — Eq. 1, Eq. 3 and utilization metrics.
"""

from repro.core.model import MulticastGroup, RejectionReason, SubscriptionRequest
from repro.core.problem import ForestProblem
from repro.core.forest import MulticastTree, OverlayForest
from repro.core.state import BuilderState
from repro.core.node_join import JoinOutcome, ParentPolicy, try_join
from repro.core.base import BuildResult, OverlayBuilder
from repro.core.tree_order import (
    LargestTreeFirstBuilder,
    MinCapacityTreeFirstBuilder,
    SmallestTreeFirstBuilder,
)
from repro.core.randomized import RandomJoinBuilder
from repro.core.granularity import GranularityBuilder
from repro.core.correlation import CorrelatedRandomJoinBuilder, criticality
from repro.core.incremental import (
    IncrementalRepairer,
    RepairReport,
    add_subscription,
    churn_rate,
    overlay_cost,
    remove_subscription,
)
from repro.core.metrics import (
    ForestMetrics,
    correlation_weighted_rejection,
    criticality_loss_ratio,
    pairwise_rejection_sum,
    rejection_ratio,
)
from repro.core.registry import available_algorithms, make_builder

__all__ = [
    "MulticastGroup",
    "RejectionReason",
    "SubscriptionRequest",
    "ForestProblem",
    "MulticastTree",
    "OverlayForest",
    "BuilderState",
    "JoinOutcome",
    "ParentPolicy",
    "try_join",
    "BuildResult",
    "OverlayBuilder",
    "LargestTreeFirstBuilder",
    "SmallestTreeFirstBuilder",
    "MinCapacityTreeFirstBuilder",
    "RandomJoinBuilder",
    "GranularityBuilder",
    "CorrelatedRandomJoinBuilder",
    "criticality",
    "add_subscription",
    "remove_subscription",
    "churn_rate",
    "IncrementalRepairer",
    "RepairReport",
    "overlay_cost",
    "ForestMetrics",
    "rejection_ratio",
    "pairwise_rejection_sum",
    "correlation_weighted_rejection",
    "criticality_loss_ratio",
    "available_algorithms",
    "make_builder",
]
