"""Camera-array geometry: rings of inward-facing 3D cameras.

Real 3DTI sites (e.g. TEEVE) surround the capture stage with cameras at
various angles (Fig. 4 of the paper numbers them 1..8 around the
subject).  :func:`camera_ring` reproduces that layout: ``n`` cameras
equally spaced on a circle, all aimed at the stage centre.
"""

from __future__ import annotations

import math

from repro.fov.geometry import Pose, Vec3


def camera_ring(
    n_cameras: int, radius: float = 3.0, height: float = 1.5
) -> list[Pose]:
    """Place ``n_cameras`` inward-facing cameras on a ring round the origin.

    Camera 0 sits on the +x axis, which we treat as the "front" of the
    subject; the rest follow counter-clockwise, equally spaced.

    Parameters
    ----------
    n_cameras:
        Number of cameras (>= 1).
    radius:
        Ring radius in metres.
    height:
        Camera height above the stage plane.
    """
    if n_cameras < 1:
        raise ValueError(f"n_cameras must be >= 1, got {n_cameras}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    subject = Vec3(0.0, 0.0, height * 0.7)
    poses = []
    for k in range(n_cameras):
        theta = 2.0 * math.pi * k / n_cameras
        position = Vec3(radius * math.cos(theta), radius * math.sin(theta), height)
        poses.append(Pose.look_at(position, subject))
    return poses
