"""Field-exact equality of data-plane reports."""

from __future__ import annotations

from repro.sim.dataplane import DataPlaneReport


def reports_equal(a: DataPlaneReport, b: DataPlaneReport) -> bool:
    """Field-exact equality of two data-plane reports (floats included).

    ``latency_percentiles`` is deliberately *not* compared: it is a
    presentation field the planes fill on different terms (sampled
    always, event only on request, fast never), orthogonal to the
    delivery accounting this check pins.
    """
    if (
        a.duration_ms != b.duration_ms
        or a.frames_captured != b.frames_captured
        or a.frames_delivered != b.frames_delivered
        or a.latency_bound_ms != b.latency_bound_ms
        or a.bytes_sent_by_site != b.bytes_sent_by_site
        or a.sends_dropped != b.sends_dropped
        or a.duplicates_discarded != b.duplicates_discarded
        or a.nacks_sent != b.nacks_sent
        or a.repairs_sent != b.repairs_sent
        or a.frames_recovered != b.frames_recovered
        or a.frames_unrecovered != b.frames_unrecovered
        or set(a.deliveries) != set(b.deliveries)
    ):
        return False
    for key, stats in a.deliveries.items():
        other = b.deliveries[key]
        if (
            stats.frames != other.frames
            or stats.total_latency_ms != other.total_latency_ms
            or stats.max_latency_ms != other.max_latency_ms
        ):
            return False
    return True
