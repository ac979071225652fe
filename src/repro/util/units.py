"""Physical units and constants used across the toolkit.

The paper (Sec. 1 and 5.1) quotes concrete magnitudes which we keep here
as named constants so the media layer and the documentation agree:

* a raw 3D stream is ``640 x 480 x 15 fps x 5 B/pixel ~= 180 Mbps``;
* after background subtraction / resolution reduction / real-time 3D
  compression a stream is approximately **5-10 Mbps**;
* tele-immersive sites on Internet2 observed **40-150 Mbps** available.

Edge costs in the evaluation are derived from geographic distance; we
convert great-circle kilometres to one-way propagation milliseconds at
two-thirds of the speed of light (standard fibre assumption) plus a small
per-hop router processing delay.
"""

from __future__ import annotations

#: Speed of light in fibre, expressed in km per millisecond (~2/3 c).
LIGHT_SPEED_FIBER_KM_PER_MS = 200.0

#: Fixed per-hop store-and-forward / routing delay in milliseconds.
ROUTER_HOP_DELAY_MS = 0.5

#: Raw (uncompressed) 3D stream bandwidth from the paper's back-of-envelope.
RAW_STREAM_MBPS = 640 * 480 * 15 * 5 * 8 / 1e6  # ~184 Mbps

#: Compressed stream bandwidth range quoted in Sec. 5.1 (Mbps).
COMPRESSED_STREAM_MBPS = (5.0, 10.0)

#: Internet2 available-bandwidth range measured by the authors (Mbps).
SITE_BANDWIDTH_MBPS = (40.0, 150.0)

#: Per-stream rendering cost measured by the authors (ms per stream).
RENDER_COST_MS_PER_STREAM = 10.0


def propagation_delay_ms(distance_km: float, hops: int = 1) -> float:
    """One-way network delay for a path of ``distance_km`` and ``hops`` links.

    ``hops`` adds the fixed router processing delay per traversed link.
    """
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km}")
    if hops < 0:
        raise ValueError(f"hops must be non-negative, got {hops}")
    return distance_km / LIGHT_SPEED_FIBER_KM_PER_MS + hops * ROUTER_HOP_DELAY_MS


def mbps_for_stream(quality: float = 0.5) -> float:
    """Bandwidth of a single compressed 3D video stream.

    ``quality`` is the position within the paper's 5-10 Mbps compressed
    range (0 -> 5 Mbps, 1 -> 10 Mbps).
    """
    if not 0.0 <= quality <= 1.0:
        raise ValueError(f"quality must be in [0, 1], got {quality}")
    low, high = COMPRESSED_STREAM_MBPS
    return low + quality * (high - low)
