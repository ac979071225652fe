"""Tests for vector/pose math."""

from __future__ import annotations

import math

import pytest

from repro.fov.geometry import Pose, Vec3, angle_between_deg

ORIGIN = Vec3(0.0, 0.0, 0.0)
UP = Vec3(0.0, 0.0, 1.0)


class TestVec3:
    def test_sub(self):
        assert Vec3(1, 2, 3) - Vec3(1, 1, 1) == Vec3(0, 1, 2)

    def test_dot(self):
        assert Vec3(1, 2, 3).dot(Vec3(4, 5, 6)) == 32

    def test_norm(self):
        assert Vec3(3, 4, 0).norm() == pytest.approx(5.0)

    def test_normalized(self):
        v = Vec3(0, 0, 9).normalized()
        assert v == Vec3(0, 0, 1)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            ORIGIN.normalized()


class TestAngle:
    def test_parallel_zero(self):
        assert angle_between_deg(UP, Vec3(0.0, 0.0, 3.0)) == pytest.approx(0.0)

    def test_orthogonal_ninety(self):
        assert angle_between_deg(Vec3(1, 0, 0), Vec3(0, 1, 0)) == pytest.approx(90.0)

    def test_opposite_180(self):
        assert angle_between_deg(UP, Vec3(0.0, 0.0, -1.0)) == pytest.approx(180.0)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            angle_between_deg(ORIGIN, UP)

    def test_45_degrees(self):
        assert angle_between_deg(Vec3(1, 0, 0), Vec3(1, 1, 0)) == pytest.approx(45.0)


class TestPose:
    def test_direction_normalized(self):
        pose = Pose(ORIGIN, Vec3(0, 0, 10))
        assert pose.direction.norm() == pytest.approx(1.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Pose(ORIGIN, ORIGIN)

    def test_look_at(self):
        pose = Pose.look_at(Vec3(0, 0, 0), Vec3(5, 0, 0))
        assert pose.direction == Vec3(1, 0, 0)


class TestCameraRing:
    def test_count_and_aim(self):
        from repro.fov.camera import camera_ring

        poses = camera_ring(8, radius=3.0, height=1.5)
        assert len(poses) == 8
        for pose in poses:
            # every camera points inward (negative radial component)
            radial = Vec3(pose.position.x, pose.position.y, 0.0)
            assert pose.direction.dot(radial) < 0

    def test_positions_on_circle(self):
        from repro.fov.camera import camera_ring

        for pose in camera_ring(6, radius=2.0):
            r = math.hypot(pose.position.x, pose.position.y)
            assert r == pytest.approx(2.0)

    def test_invalid_args(self):
        from repro.fov.camera import camera_ring

        with pytest.raises(ValueError):
            camera_ring(0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_bad_radius_rejected(self, radius):
        """A NaN or infinite radius used to give NaN poses, silently."""
        from repro.fov.camera import camera_ring

        with pytest.raises(ValueError, match="radius"):
            camera_ring(4, radius=radius)

    def test_first_camera_on_the_x_axis(self):
        from repro.fov.camera import camera_ring

        first, second = camera_ring(4, radius=3.0, height=1.5)[:2]
        assert first.position == Vec3(3.0, 0.0, 1.5)
        assert second.position.x == pytest.approx(0.0, abs=1e-12)
        assert second.position.y == pytest.approx(3.0)
