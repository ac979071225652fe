"""Tests for session assembly."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.problem import ForestProblem
from repro.errors import SessionError
from repro.fov.camera import camera_ring
from repro.session.capacity import HeterogeneousCapacityModel, UniformCapacityModel
from repro.session.session import SessionConfig, TISession, build_session
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from repro.workload.spec import SubscriptionWorkload
from tests.reference_paths import use_array_backend

SRC = Path(__file__).resolve().parents[2] / "src"


class TestBuildSession:
    def test_structure(self, small_session):
        assert small_session.n_sites == 4
        for index, site in enumerate(small_session.sites):
            assert site.index == index
            assert len(site.cameras) == 6
            assert len(site.displays) == 2

    def test_registry_covers_all_cameras(self, small_session):
        assert small_session.total_streams() == 4 * 6

    def test_distinct_pops(self, small_session):
        pops = [site.pop_id for site in small_session.sites]
        assert len(set(pops)) == len(pops)

    def test_cost_symmetry_and_zero_diagonal(self, small_session):
        for a in range(4):
            assert small_session.cost_ms(a, a) == 0.0
            for b in range(4):
                assert small_session.cost_ms(a, b) == pytest.approx(
                    small_session.cost_ms(b, a)
                )

    def test_cost_positive_between_distinct_sites(self, small_session):
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert small_session.cost_ms(a, b) > 0

    def test_deterministic_given_seed(self, tier1_topology):
        def build(seed):
            return build_session(
                tier1_topology,
                UniformCapacityModel(),
                RngStream(seed),
                SessionConfig(n_sites=5),
            )

        a, b = build(3), build(3)
        assert [s.pop_id for s in a.sites] == [s.pop_id for s in b.sites]
        assert [s.rp.inbound_limit for s in a.sites] == [
            s.rp.inbound_limit for s in b.sites
        ]

    def test_camera_poses_assigned(self, small_session):
        for site in small_session.sites:
            assert all(camera.pose is not None for camera in site.cameras)

    def test_equal_ring_sizes_share_equal_poses(self):
        session = build_session(
            load_backbone("synthetic-56"),
            HeterogeneousCapacityModel(),
            RngStream(7),
            SessionConfig(n_sites=56),
        )
        rings: dict[int, list] = {}
        for site in session.sites:
            poses = [camera.pose for camera in site.cameras]
            assert poses == camera_ring(len(poses))
            assert poses == rings.setdefault(len(poses), poses)
        assert len(rings) < session.n_sites

    def test_unknown_site_raises(self, small_session):
        with pytest.raises(SessionError):
            small_session.site(99)
        with pytest.raises(SessionError):
            small_session.cost_ms(0, 99)

    def test_cost_matrix_copy_is_safe(self, small_session):
        rows = small_session.dense_cost_matrix().rows()
        n = len(small_session.sites)
        matrix = {a: {b: rows[a][b] for b in range(n)} for a in range(n)}
        assert all(
            matrix[a][b] == small_session.cost_ms(a, b)
            for a in range(n)
            for b in range(n)
        )
        matrix[0][1] = -1.0
        assert small_session.cost_ms(0, 1) >= 0.0


class TestSessionValidation:
    def test_bad_site_order_rejected(self, small_session):
        sites = list(small_session.sites)
        sites[0], sites[1] = sites[1], sites[0]
        with pytest.raises(SessionError):
            TISession(
                topology=small_session.topology,
                sites=sites,
                registry=small_session.registry,
            )

    def test_config_validation(self):
        with pytest.raises(SessionError):
            SessionConfig(n_sites=0)
        with pytest.raises(SessionError):
            SessionConfig(displays_per_site=0)


class TestCostRows:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("name", ["synthetic-24", "synthetic-130"])
    def test_every_entry_is_a_plain_float(self, backend, name):
        """Both the heap rows and, from 128 PoPs, the scipy rows."""
        if backend == "numpy":
            pytest.importorskip("numpy")
        with use_array_backend(backend):
            session = build_session(
                load_backbone(name),
                UniformCapacityModel(streams_per_site=2),
                RngStream(5),
                SessionConfig(n_sites=24),
            )
            workload = SubscriptionWorkload.from_site_sets(
                24, {1: session.site(0).stream_ids}
            )
            problem = ForestProblem.from_workload(session, workload, 120.0)
        for rows in (
            session.dense_cost_matrix().rows(),
            problem.dense_cost_matrix().rows(),
        ):
            assert len(rows) == 24
            assert all(type(x) is float for row in rows for x in row)

    def test_benchmark_sized_sessions_leave_scipy_unimported(self):
        """Below 128 PoPs the shortest paths never reach for scipy."""
        code = (
            "import sys\n"
            "from repro.session.capacity import UniformCapacityModel\n"
            "from repro.session.session import SessionConfig, build_session\n"
            "from repro.topology.backbone import load_backbone\n"
            "from repro.util.rng import RngStream\n"
            "for n in (56, 64, 96):\n"
            "    build_session(load_backbone(f'synthetic-{n}'),\n"
            "                  UniformCapacityModel(), RngStream(7),\n"
            "                  SessionConfig(n_sites=n))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
