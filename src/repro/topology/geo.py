"""Geographic primitives: coordinates and great-circle distance."""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Mean Earth radius in kilometres.
EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class GeoPoint:
    """A point on the Earth's surface (degrees latitude / longitude)."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points via the haversine formula."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(1.0, h)))
