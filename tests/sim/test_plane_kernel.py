"""The forest-level plane kernel, pinned to the loops it replaced.

:class:`FastDataPlane` and :class:`SampledDataPlane` run one
(receivers x frames) kernel over the whole forest.  The per-tree,
per-delivery list loops they ran before live on in
``tests/reference_paths.py``; every report here must equal theirs field
for field — exact floats, percentiles included — on both array
backends, on either side of every frame count that used to switch
paths, on forests whose attach order is not level order, and at every
corner of the noise model.  The last class pins what the three planes
do with inputs they cannot run.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random

import pytest

from repro.core.backend import numpy_available
from repro.core.forest import OverlayForest
from repro.core.model import RejectionReason
from repro.core.registry import make_builder
from repro.errors import ConfigurationError, SessionError
from repro.perf.sweep import reports_equal
from repro.pubsub.system import PubSubSystem
from repro.session.capacity import HeterogeneousCapacityModel
from repro.session.session import SessionConfig, build_session
from repro.sim.dataplane import (
    FastDataPlane,
    ForestDataPlane,
    SampledDataPlane,
    make_dataplane,
)
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from tests.reference_paths import (
    per_delivery_fast_run,
    per_delivery_sampled_run,
    use_array_backend,
)

BACKENDS = (
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy not importable"),
    ),
)
#: 63 / 64 straddle the frame count at which the per-tree kernels used
#: to switch from lists to ndarrays; 151 is the benchmark's long run.
FRAME_COUNTS = (1, 8, 63, 64, 151)
SEEDS = (7, 11, 23)
NOISY = {"jitter_ms": 5.0, "loss_probability": 0.2}
FPS = 15.0


def duration_of(frames: int) -> float:
    """A horizon that captures exactly ``frames`` frames at 15 fps."""
    return (frames - 1) * 1000.0 / FPS + 1.0


@functools.lru_cache(maxsize=None)
def dense_forest(backend: str, seed: int, algorithm: str):
    """A 10-site session and a forest with deep, contended trees.

    Three sites' cameras are watched by everyone, the rest by a few, on
    heterogeneous capacities: trees four to five hops deep, rejections
    (so co-rj swaps victims), trees nobody receives, and three stream
    bandwidths.  The planes only read it, so it is built once a key.
    """
    with use_array_backend(backend):
        session = build_session(
            load_backbone("synthetic-10"),
            HeterogeneousCapacityModel(),
            RngStream(seed, label="kernel").spawn("session"),
            SessionConfig(n_sites=10, displays_per_site=2),
        )
    by_site = session.registry._by_site
    for site, streams in by_site.items():
        for index, descriptor in streams.items():
            streams[index] = dataclasses.replace(
                descriptor, bandwidth_mbps=(5.0, 7.5, 10.0)[(site + index) % 3]
            )
    system = PubSubSystem(
        session=session,
        builder=make_builder(algorithm),
        latency_bound_ms=120.0,
        rebuild_policy="always",
    )
    draws = random.Random(seed)
    popular = [s for site in session.sites[:3] for s in site.stream_ids[:4]]
    others = [
        s for site in session.sites for s in site.stream_ids if s not in popular
    ]
    for site in session.sites:
        first, second = site.displays
        for display, streams in (
            (first, popular),
            (second, draws.sample(others, 6)),
        ):
            system.subscribe_display(
                site.index,
                display.display_id,
                [s for s in streams if s.site != site.index],
            )
    system.run_control_round(RngStream(seed, label="kernel").spawn("build"))
    return session, system.last_result.forest


def chain_forest(session, depth: int = 7) -> OverlayForest:
    """Hand-built: one chain ``0 -> 1 -> ... -> depth`` with a branch at
    every other hop, and a second, single-hop tree."""
    forest = OverlayForest()
    first, second = session.site(0).stream_ids[:2]
    chain = forest.tree(first)
    for node in range(1, depth + 1):
        chain.attach(node - 1, node, session.cost_ms(node - 1, node))
    # Attached last, at depths 2 and 4: attach order is not level order.
    chain.attach(1, depth + 1, session.cost_ms(1, depth + 1))
    chain.attach(3, depth + 2, session.cost_ms(3, depth + 2))
    forest.tree(second).attach(0, 5, session.cost_ms(0, 5))
    return forest


def assert_same_report(report, oracle) -> None:
    assert reports_equal(report, oracle)
    assert report.latency_percentiles == oracle.latency_percentiles


def check_fast(session, forest, seed: int, duration_ms: float):
    rng = RngStream(seed, label="dp")
    report = FastDataPlane(session, forest, rng.spawn("x"), fps=FPS).run(duration_ms)
    oracle = per_delivery_fast_run(
        FastDataPlane(session, forest, rng.spawn("x"), fps=FPS), duration_ms
    )
    assert_same_report(report, oracle)
    return report


def check_sampled(session, forest, seed: int, duration_ms: float, **noise):
    rng = RngStream(seed, label="dp")
    report = SampledDataPlane(
        session, forest, rng.spawn("x"), fps=FPS, **noise
    ).run(duration_ms)
    oracle = per_delivery_sampled_run(
        SampledDataPlane(session, forest, rng.spawn("x"), fps=FPS, **noise),
        duration_ms,
    )
    assert_same_report(report, oracle)
    return report


class TestForests:
    """The matrix below means something only on forests like these."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_corj_forest_swapped_victims(self, seed):
        _, forest = dense_forest("python", seed, "co-rj")
        assert any(
            reason is RejectionReason.VICTIM_SWAPPED for _, reason in forest.rejected
        )

    @pytest.mark.parametrize("algorithm", ("rj", "co-rj"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_shape(self, seed, algorithm):
        session, forest = dense_forest("python", seed, algorithm)
        depths = [
            [tree.depth(node) for node in tree.parent_map()]
            for tree in forest.trees.values()
        ]
        assert max(max(d, default=0) for d in depths) >= 3
        # Attach order is not level order: a batched kernel that walked
        # rows in order of depth without saying so would be caught.
        assert any(d != sorted(d) for d in depths)
        assert any(not d for d in depths)  # a camera nobody receives
        assert (
            len({session.registry.describe(s).bandwidth_mbps for s in forest.trees})
            == 3
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestKernelEqualsPerDeliveryLoops:
    @pytest.mark.parametrize("algorithm", ("rj", "co-rj"))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("frames", FRAME_COUNTS)
    def test_fast(self, backend, frames, seed, algorithm):
        session, forest = dense_forest(backend, seed, algorithm)
        report = check_fast(session, forest, seed, duration_of(frames))
        cameras = sum(1 for tree in forest.trees.values() if tree.receivers())
        assert report.frames_captured == frames * cameras

    @pytest.mark.parametrize("algorithm", ("rj", "co-rj"))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("frames", FRAME_COUNTS)
    def test_sampled(self, backend, frames, seed, algorithm):
        session, forest = dense_forest(backend, seed, algorithm)
        report = check_sampled(session, forest, seed, duration_of(frames), **NOISY)
        assert report.sends_dropped > 0

    def test_more_than_one_batch(self, backend):
        """Long enough that the rows no longer fit one kernel call."""
        session, forest = dense_forest(backend, 7, "co-rj")
        receivers = sum(len(tree.receivers()) for tree in forest.trees.values())
        frames = (1 << 16) // receivers
        check_fast(session, forest, 7, duration_of(frames))
        check_sampled(session, forest, 7, duration_of(frames), **NOISY)

    @pytest.mark.parametrize("frames", (1, 8, 151))
    def test_deep_chain(self, backend, frames):
        session, _ = dense_forest(backend, 7, "rj")
        forest = chain_forest(session)
        assert max(tree.depth(n) for tree in forest.trees.values() for n in tree.members()) >= 6
        fast = check_fast(session, forest, 3, duration_of(frames))
        check_sampled(session, forest, 3, duration_of(frames), **NOISY)
        event = ForestDataPlane(
            session, forest, RngStream(3, label="dp").spawn("x"), fps=FPS
        ).run(duration_of(frames))
        assert reports_equal(fast, event)

    def test_forest_without_receivers(self, backend):
        session, _ = dense_forest(backend, 7, "rj")
        forest = OverlayForest()
        for stream in session.site(0).stream_ids[:3]:
            forest.tree(stream)
        for report in (
            check_fast(session, forest, 5, 1000.0),
            check_sampled(session, forest, 5, 1000.0, **NOISY),
        ):
            assert report.frames_captured == report.frames_delivered == 0
            assert report.deliveries == {}
            assert set(report.bytes_sent_by_site.values()) == {0}
            assert report.latency_percentiles == {}

    @pytest.mark.parametrize("frames", (8, 151))
    def test_noise_corners(self, backend, frames):
        session, forest = dense_forest(backend, 11, "co-rj")
        duration_ms = duration_of(frames)
        jittered = check_sampled(session, forest, 11, duration_ms, jitter_ms=5.0)
        assert jittered.sends_dropped == 0
        lossy = check_sampled(session, forest, 11, duration_ms, loss_probability=0.2)
        assert lossy.sends_dropped > 0
        dead = check_sampled(session, forest, 11, duration_ms, loss_probability=1.0)
        assert dead.frames_delivered == 0 and dead.latency_percentiles == {}
        assert all(stats.frames == 0 for stats in dead.deliveries.values())
        # Sources still put every frame on their first hop.
        assert sum(dead.bytes_sent_by_site.values()) > 0
        quiet = check_sampled(session, forest, 11, duration_ms)
        assert reports_equal(quiet, check_fast(session, forest, 11, duration_ms))

    def test_site_outside_the_session(self, backend):
        """One bounds check for the whole gather, the same error as a
        per-hop ``session.cost_ms``."""
        session, _ = dense_forest(backend, 7, "rj")
        forest = OverlayForest()
        tree = forest.tree(session.site(0).stream_ids[0])
        tree.attach(0, 1, 1.0)
        tree.attach(1, session.n_sites, 1.0)
        for plane in ("fast", "sampled"):
            with pytest.raises(SessionError, match=f"sites 1->{session.n_sites}"):
                make_dataplane(session, forest, RngStream(1), plane=plane).run(100.0)

    def test_row_sum_is_left_to_right(self, backend):
        """Rows on which a compensated sum (builtin ``sum`` from Python
        3.12 on) and numpy's unrolled pairwise ``sum`` both answer
        differently from the event plane's running total."""
        session, _ = dense_forest(backend, 7, "rj")
        kernels = session.array_backend
        assert kernels.name == backend
        rows = (
            [1e16] + [1.0] * 7 + [-1e16] + [1.0] * 7,
            [0.1] * 16,
            [1.0, 1e100, 1.0, -1e100] * 4,
        )
        wanted = []
        for row in rows:
            total = 0.0
            for value in row:
                total += value
            assert total != math.fsum(row)
            wanted.append(total)
        assert wanted[0] == 7.0
        # Zero capture times and hop costs, jitter 1: the latencies of
        # receiver r are exactly the draws of row r.
        draws = [value for row in rows for value in row]
        if backend == "numpy":
            import numpy

            draws = numpy.asarray(draws)
        sizes = kernels.frame_sizes(
            [1000], [0.8], [1.2], kernels.unit_floats(RngStream(1).random_words(16))
        )
        _, totals, _, _, _ = kernels.disseminate(
            [0.0] * 16, [-1] * 3, [0.0] * 3, [0] * 3, sizes, jitter=1.0, noise=draws
        )
        assert totals == wanted


PLANES = ("fast", "sampled", "event")


class TestInputsNoPlaneCanRun:
    """One owner per check, the same error from all three planes."""

    def plane(self, kind: str, **knobs):
        session, self.forest = dense_forest("python", 7, "rj")
        return make_dataplane(session, self.forest, RngStream(1), plane=kind, **knobs)

    @pytest.mark.parametrize("duration_ms", (-1.0, float("nan"), float("inf")))
    @pytest.mark.parametrize("kind", PLANES)
    def test_bad_duration(self, kind, duration_ms):
        with pytest.raises(ConfigurationError, match="duration_ms"):
            self.plane(kind).run(duration_ms)

    @pytest.mark.parametrize("kind", PLANES)
    def test_zero_duration_is_one_frame(self, kind):
        report = self.plane(kind).run(0.0)
        cameras = sum(1 for tree in self.forest.trees.values() if tree.receivers())
        assert report.frames_captured == cameras > 0

    @pytest.mark.parametrize("fps", (float("nan"), float("inf"), 0.0, -15.0))
    @pytest.mark.parametrize("kind", PLANES)
    def test_bad_fps(self, kind, fps):
        with pytest.raises(ConfigurationError, match="fps"):
            self.plane(kind, fps=fps).run(100.0)

    @pytest.mark.parametrize("bound", (float("nan"), 0.0, -1.0))
    @pytest.mark.parametrize("kind", PLANES)
    def test_bad_latency_bound(self, kind, bound):
        with pytest.raises(ConfigurationError, match="latency_bound_ms"):
            self.plane(kind, latency_bound_ms=bound)
