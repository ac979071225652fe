"""Minimal 3D vector/pose math for the FOV subscription model.

Deliberately dependency-free (no numpy): the FOV pipeline runs on a few
dozen cameras per site, and plain tuples keep the objects hashable and
cheap to construct inside property-based tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Vec3:
    """An immutable 3-vector."""

    x: float
    y: float
    z: float

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def dot(self, other: "Vec3") -> float:
        """Inner product."""
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        """Euclidean length."""
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        """Unit vector in the same direction; raises on the zero vector."""
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)


def angle_between_deg(a: Vec3, b: Vec3) -> float:
    """Angle between two direction vectors, in degrees (0..180)."""
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        raise ValueError("angle undefined for zero vector")
    cosine = max(-1.0, min(1.0, a.dot(b) / (na * nb)))
    return math.degrees(math.acos(cosine))


@dataclass(frozen=True)
class Pose:
    """Position plus viewing direction (the direction is normalized)."""

    position: Vec3
    direction: Vec3

    def __post_init__(self) -> None:
        if self.direction.norm() == 0.0:
            raise ValueError("pose direction must be non-zero")
        object.__setattr__(self, "direction", self.direction.normalized())

    @staticmethod
    def look_at(position: Vec3, target: Vec3) -> "Pose":
        """Construct a pose at ``position`` looking toward ``target``."""
        return Pose(position, target - position)
