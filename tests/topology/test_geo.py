"""Tests for geographic primitives."""

from __future__ import annotations

import random

import pytest

from repro.topology.geo import EARTH_RADIUS_KM, GeoPoint, haversine_km


class TestGeoPoint:
    def test_valid_point(self):
        p = GeoPoint(40.71, -74.01)
        assert p.lat == 40.71

    def test_latitude_bounds(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-91.0, 0.0)

    def test_longitude_bounds(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)

    def test_frozen(self):
        p = GeoPoint(0.0, 0.0)
        with pytest.raises(Exception):
            p.lat = 1.0  # type: ignore[misc]


class TestHaversine:
    def test_zero_distance(self):
        p = GeoPoint(12.0, 34.0)
        assert haversine_km(p, p) == pytest.approx(0.0)

    def test_symmetry(self):
        """Bit for bit: the synthetic backbone computes each pair once."""
        draws = random.Random(11)
        points = [
            GeoPoint(draws.uniform(-90.0, 90.0), draws.uniform(-180.0, 180.0))
            for _ in range(200)
        ]
        points += [GeoPoint(40.71, -74.01), GeoPoint(51.51, -0.13)]
        for a, b in zip(points, points[1:]):
            assert haversine_km(a, b) == haversine_km(b, a)

    def test_new_york_to_london(self):
        # Well-known great-circle distance ~5570 km.
        ny = GeoPoint(40.71, -74.01)
        london = GeoPoint(51.51, -0.13)
        assert haversine_km(ny, london) == pytest.approx(5570, rel=0.01)

    def test_quarter_circumference(self):
        equator = GeoPoint(0.0, 0.0)
        pole = GeoPoint(90.0, 0.0)
        import math

        assert haversine_km(equator, pole) == pytest.approx(
            math.pi * EARTH_RADIUS_KM / 2, rel=1e-6
        )

    def test_antipodal_points(self):
        import math

        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        assert haversine_km(a, b) == pytest.approx(
            math.pi * EARTH_RADIUS_KM, rel=1e-6
        )

    def test_method_matches_function(self):
        a = GeoPoint(10.0, 20.0)
        b = GeoPoint(-30.0, 60.0)
        assert a.distance_km(b) == haversine_km(a, b)
