"""Comparison baselines.

The paper motivates the overlay forest against the conventional
"all-to-all" unicast scheme (Sec. 1): :class:`DirectUnicastBuilder` has
sources serve every subscriber directly, no relaying (that scheme
restricted to subscribed streams).
"""

from repro.baselines.all_to_all import DirectUnicastBuilder, all_to_all_load

__all__ = [
    "DirectUnicastBuilder",
    "all_to_all_load",
]
