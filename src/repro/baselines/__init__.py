"""Comparison baselines.

The paper motivates the overlay forest against the conventional
"all-to-all" unicast scheme (Sec. 1) and credits its gains to randomized
scheduling plus rfc-based load balancing.  These baselines isolate each
ingredient:

* :class:`DirectUnicastBuilder` — sources serve every subscriber
  directly, no relaying (the abandoned all-to-all scheme restricted to
  subscribed streams);
* parent-policy ablations — :data:`repro.core.node_join.ParentPolicy`
  (``MIN_COST``, ``FIRST_FIT``) plugged into any builder.
"""

from repro.baselines.all_to_all import DirectUnicastBuilder, all_to_all_load

__all__ = [
    "DirectUnicastBuilder",
    "all_to_all_load",
]
