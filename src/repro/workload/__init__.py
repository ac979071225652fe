"""Subscription workload generation (Sec. 5.1 of the paper).

A *workload* says which site subscribes to which remote streams — the
input the membership server feeds to overlay construction.  The paper
evaluates two statistical families:

* **Zipf-distributed** stream popularity (front cameras most popular);
* **random** (uniform) popularity, for surveillance-style applications.

Both are realized here through a display-driven model: each site has a
fixed display array and every display subscribes to an FOV-sized set of
remote streams drawn from the popularity distribution; the site-level
subscription is the union.  Two hundred samples are generated per setting
to enumerate possible subscriptions, as in the paper.
"""

from repro.workload.spec import SubscriptionWorkload, WorkloadSpec
from repro.workload.zipf import ZipfPopularity
from repro.workload.uniform import UniformPopularity
from repro.workload.generator import WorkloadGenerator

__all__ = [
    "SubscriptionWorkload",
    "WorkloadSpec",
    "ZipfPopularity",
    "UniformPopularity",
    "WorkloadGenerator",
]
