"""Camera-array geometry: rings of inward-facing 3D cameras.

Real 3DTI sites (e.g. TEEVE) surround the capture stage with cameras at
various angles (Fig. 4 of the paper numbers them 1..8 around the
subject).  :func:`camera_ring` reproduces that layout: ``n`` cameras
equally spaced on a circle, all aimed at the stage centre.
"""

from __future__ import annotations

import math

from repro.fov.geometry import Pose, Vec3

#: Ring radius in metres.
RING_RADIUS_M = 3.0

#: Camera height above the stage plane, in metres.
RING_HEIGHT_M = 1.5


def camera_ring(n_cameras: int) -> list[Pose]:
    """Place ``n_cameras`` (>= 1) inward-facing cameras on a ring round
    the origin, :data:`RING_RADIUS_M` out and :data:`RING_HEIGHT_M` up.

    Camera 0 sits on the +x axis, which we treat as the "front" of the
    subject; the rest follow counter-clockwise, equally spaced.
    """
    if n_cameras < 1:
        raise ValueError(f"n_cameras must be >= 1, got {n_cameras}")
    radius, height = RING_RADIUS_M, RING_HEIGHT_M
    subject = Vec3(0.0, 0.0, height * 0.7)
    poses = []
    for k in range(n_cameras):
        theta = 2.0 * math.pi * k / n_cameras
        position = Vec3(radius * math.cos(theta), radius * math.sin(theta), height)
        poses.append(Pose.look_at(position, subject))
    return poses
