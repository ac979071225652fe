"""The array-backend contract: derived selection and bit-exact kernels.

The numpy backend is an accelerator, never a semantics change: every
kernel must reproduce the pure-python reference bit for bit.  These
tests pin the selection rule (numpy when importable, else python — not
configurable; the reference is reached through ``use_array_backend``)
and the kernel-level equivalences; the scenario digest matrix in
``tests/scenarios/test_backend_digests.py`` pins the end-to-end builds.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.backend as backend_mod
from repro.core.backend import (
    ArrayBackend,
    NumpyBackend,
    numpy_available,
    resolve_backend,
)
from repro.core.forest import MulticastTree, OverlayForest
from repro.core.node_join import scan_parent_scalar
from repro.core.problem import ForestProblem
from repro.core.registry import available_algorithms, make_builder
from repro.core.state import BuilderState
from repro.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec
from repro.session.capacity import (
    HeterogeneousCapacityModel,
    UniformCapacityModel,
)
from repro.session.session import SessionConfig, build_session
from repro.sim.dataplane import FastDataPlane
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from repro.workload.coverage import CoverageWorkloadModel
from tests.conftest import members, rfc
from tests.core.regimes import REGIMES, regime_problem
from tests.reference_paths import (
    _parent_by_rule,
    use_array_backend,
    use_parent_rule,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not importable"
)


def _problem(backend: str, n_sites: int = 32, seed: int = 42):
    """A deterministic session and problem bound to the named backend."""
    with use_array_backend(backend):
        session = build_session(
            load_backbone(f"synthetic-{n_sites}"),
            UniformCapacityModel(streams_per_site=4),
            RngStream(seed, label=f"bk/N{n_sites}").spawn("session"),
            SessionConfig(n_sites=n_sites, displays_per_site=2),
        )
        workload = CoverageWorkloadModel(
            mean_subscribers=6.0, guarantee_coverage=False
        ).generate(
            session, RngStream(seed, label=f"bk/N{n_sites}").spawn("workload")
        )
        return session, ForestProblem.from_workload(session, workload, 120.0)


def _forest_shape(result) -> dict:
    """Parent map + outcome lists, for exact cross-backend comparison."""
    return {
        "trees": {
            str(stream): {
                node: tree.parent(node) for node in tree.path_costs()
            }
            for stream, tree in result.forest.trees.items()
        },
        "satisfied": [str(r) for r in result.satisfied],
        "rejected": [
            (str(r), reason.value) for r, reason in result.forest.rejected
        ],
    }


class TestSelection:
    def test_follows_numpy_availability(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_selected", None)
        expected = "numpy" if numpy_available() else "python"
        assert resolve_backend().name == expected
        assert resolve_backend() is resolve_backend()

    def test_falls_back_to_python_without_numpy(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_np", None)
        monkeypatch.setattr(backend_mod, "_np_checked", True)
        monkeypatch.setattr(backend_mod, "_selected", None)
        assert resolve_backend().name == "python"
        with pytest.raises(ConfigurationError):
            NumpyBackend()

    def test_takes_no_argument(self):
        with pytest.raises(TypeError):
            resolve_backend("python")

    def test_environment_is_not_consulted(self, monkeypatch):
        monkeypatch.setenv("TELE3D_BACKEND", "fortran")
        monkeypatch.setattr(backend_mod, "_selected", None)
        expected = "numpy" if numpy_available() else "python"
        assert resolve_backend().name == expected

    def test_use_array_backend_pins_and_restores(self):
        before = resolve_backend()
        with use_array_backend("python") as pinned:
            assert pinned.name == "python"
            assert resolve_backend() is pinned
            session, problem = _problem("python", n_sites=8)
        assert resolve_backend() is before
        # What was built inside the block keeps the backend it bound.
        assert session.array_backend is pinned
        assert problem.array_backend is pinned
        assert problem.dense_cost_matrix().array_backend is pinned

    def test_use_array_backend_restores_after_an_error(self):
        before = resolve_backend()
        with pytest.raises(RuntimeError):
            with use_array_backend("python"):
                raise RuntimeError("boom")
        assert resolve_backend() is before
        with pytest.raises(KeyError):
            with use_array_backend("fortran"):
                pass
        assert resolve_backend() is before

    @needs_numpy
    def test_use_array_backend_nests(self):
        with use_array_backend("python"):
            with use_array_backend("numpy"):
                assert resolve_backend().name == "numpy"
            assert resolve_backend().name == "python"

    def test_backend_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            SessionConfig(n_sites=4, backend="python")
        with pytest.raises(TypeError):
            ScenarioSpec(
                name="x",
                n_sites=4,
                initial_active=4,
                duration_ms=100.0,
                seed=1,
                backend="numpy",
            )


BACKENDS = ("python", pytest.param("numpy", marks=needs_numpy))


def _backend(name: str) -> ArrayBackend:
    return NumpyBackend() if name == "numpy" else ArrayBackend()


@pytest.mark.parametrize("name", BACKENDS)
class TestBulkDraws:
    """``unit_floats(random_words(n))`` is ``n`` calls of ``random()``."""

    @pytest.mark.parametrize("count", (0, 1, 2, 1000, 10**5))
    def test_equals_random_calls(self, name, count):
        bulk, single = RngStream(5, label="draws"), RngStream(5, label="draws")
        draws = _backend(name).unit_floats(bulk.random_words(count))
        assert list(draws) == [single.random() for _ in range(count)]
        # Same generator words consumed: the streams go on in step.
        assert bulk.random() == single.random()

    def test_scaled_draw_is_uniform(self, name):
        """``low + (high - low) * r`` is ``uniform(low, high)``, the
        identity every batched draw leans on."""
        bulk, single = RngStream(9), RngStream(9)
        for low, high in ((0.8, 1.2), (0.0, 5.0), (0.0, 1.0), (-3.0, 7.5)):
            for r in list(_backend(name).unit_floats(bulk.random_words(250))):
                assert low + (high - low) * r == single.uniform(low, high)


@needs_numpy
class TestKernelEquivalence:
    """The numpy plane kernel against the pure-python reference, bit for
    bit, on a random forest of rows (the plane-level pins against the
    per-delivery loops are in ``tests/sim/test_plane_kernel.py``)."""

    @pytest.mark.parametrize(
        "loss, jitter", ((0.0, 0.0), (0.3, 0.0), (0.0, 4.0), (0.3, 4.0))
    )
    def test_disseminate(self, loss, jitter):
        rng = RngStream(5, label="plane")
        n_frames, n_trees = 37, 6
        times = [66.0 * k for k in range(n_frames)]
        parent_rows, tree_rows = [], []
        for tree in range(n_trees):
            first = len(parent_rows)
            for row in range(first, first + 15):
                # Under the source, or under any earlier row of this tree.
                parent_rows.append(rng.choice([-1, *range(first, row)]))
                tree_rows.append(tree)
        n_rows = len(parent_rows)
        hops = [rng.random() * 40.0 for _ in range(n_rows)]
        words = RngStream(6).random_words(n_trees * n_frames)
        stride = n_frames * ((loss > 0.0) + (jitter > 0.0))
        noise_words = RngStream(7).random_words(stride * n_rows)
        results = []
        for backend in (ArrayBackend(), NumpyBackend()):
            sizes = backend.frame_sizes(
                [40_000 + 9_000 * k for k in range(n_trees)],
                [0.8] * n_trees,
                [1.2] * n_trees,
                backend.unit_floats(words),
            )
            noise = backend.unit_floats(noise_words) if stride else None
            frames, totals, maxima, sent, delivered = backend.disseminate(
                times, parent_rows, hops, tree_rows, sizes, loss, jitter, noise, True
            )
            results.append(
                (
                    [list(map(int, row)) for row in sizes],
                    frames,
                    totals,
                    maxima,
                    sent,
                    sorted(delivered),
                )
            )
        assert results[0] == results[1]
        assert sum(results[0][1]) == len(results[0][5])
        if loss:
            assert 0 < sum(results[0][1]) < n_rows * n_frames


class TestParentScan:
    """The one parent scan every join takes, on both backends."""

    def test_one_function_bound_on_both_backends(self):
        # The benchmark tracer wraps the name in NumpyBackend's own dict.
        scan = vars(ArrayBackend)["parent_scan"]
        assert vars(NumpyBackend)["parent_scan"] is scan
        assert ArrayBackend().parent_scan is scan_parent_scalar

    def test_a_test_side_rule_is_gone_after_its_block(self):
        scan = vars(ArrayBackend)["parent_scan"]
        with use_parent_rule("first-fit"):
            assert vars(NumpyBackend)["parent_scan"] is not scan
        assert vars(ArrayBackend)["parent_scan"] is scan
        assert vars(NumpyBackend)["parent_scan"] is scan

    @pytest.mark.parametrize("name", BACKENDS)
    def test_every_join_on_built_forest(self, name):
        """Every tree × outside subscriber of a built forest."""
        _, problem = _problem(name)
        result = make_builder("rj").build(
            problem, RngStream(42, label="bk/N32").spawn("build")
        )
        backend = problem.array_backend
        answers = set()
        for tree in result.forest.trees.values():
            for subscriber in range(problem.n_nodes):
                if subscriber in tree:
                    continue
                parent = backend.parent_scan(problem, result.state, tree, subscriber)
                assert parent == _parent_by_rule(
                    problem, result.state, tree, subscriber, "max-rfc"
                )
                answers.add(parent)
        # The sweep exercised the scan: it chose many parents.
        assert len(answers) > 2

    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_every_join_mid_build(self, monkeypatch, algorithm):
        """Every scan a build takes, checked against the rule on the state
        as it stands at that join.

        A saturated problem leaves reservations outstanding, members
        with free out-degree but no positive rfc, rfc ties and (for
        co-rj) trees a victim swap detached a leaf from; the sweep must
        meet each of them.
        """
        session = build_session(
            load_backbone("synthetic-14"),
            HeterogeneousCapacityModel(
                large=9, medium=6, small=3, streams_low=2, streams_high=5
            ),
            RngStream(11, label="mid").spawn("session"),
            SessionConfig(n_sites=14, displays_per_site=2),
        )
        workload = CoverageWorkloadModel(
            mean_subscribers=7.0, guarantee_coverage=False
        ).generate(session, RngStream(11, label="mid").spawn("workload"))
        problem = ForestProblem.from_workload(session, workload, 100.0)
        outbound = problem.outbound_limits()
        detached: set[MulticastTree] = set()
        met: Counter[str] = Counter()

        real_detach = MulticastTree.detach_leaf

        def detach_leaf(tree, node):
            detached.add(tree)
            return real_detach(tree, node)

        def checked(problem, state, tree, subscriber):
            parent = scan_parent_scalar(problem, state, tree, subscriber)
            assert parent == _parent_by_rule(
                problem, state, tree, subscriber, "max-rfc"
            )
            nodes = members(tree)
            met["reserved slot"] += not tree.disseminated
            met["m-hat outstanding"] += any(state.m_hat[m] > 0 for m in nodes)
            met["free but rfc <= 0"] += any(
                state.dout[m] < outbound[m] and rfc(state, m) <= 0
                for m in nodes
            )
            rfcs = [rfc(state, m) for m in nodes]
            met["rfc tie"] += tree.disseminated and rfcs.count(max(rfcs)) > 1
            met["detached tree"] += tree in detached
            return parent

        monkeypatch.setattr(MulticastTree, "detach_leaf", detach_leaf)
        monkeypatch.setattr(
            type(problem.array_backend), "parent_scan", staticmethod(checked)
        )
        builder = make_builder(algorithm)
        builder.build(problem, RngStream(11, label="mid").spawn("build")).verify()
        wanted = {
            "reserved slot", "m-hat outstanding", "free but rfc <= 0", "rfc tie"
        }
        if algorithm == "co-rj":
            wanted.add("detached tree")
        assert {name for name, count in met.items() if count} >= wanted

    @pytest.mark.parametrize(
        "regime", ["latency-bound", "degree-bound", "zipf-focus", "n24"]
    )
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_every_join_mid_build_in_regime(self, monkeypatch, algorithm, regime):
        """Every scan a build of the regime takes matches the rule."""
        problem = regime_problem(regime)
        scans = []

        def checked(problem, state, tree, subscriber):
            parent = scan_parent_scalar(problem, state, tree, subscriber)
            assert parent == _parent_by_rule(
                problem, state, tree, subscriber, "max-rfc"
            )
            scans.append(parent)
            return parent

        monkeypatch.setattr(
            type(problem.array_backend), "parent_scan", staticmethod(checked)
        )
        make_builder(algorithm).build(
            problem, RngStream(REGIMES[regime].seed, label="mid")
        ).verify()
        # Joins found parents and joins found none.
        assert None in scans
        assert len(set(scans)) > 2

    @needs_numpy
    @pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
    def test_build_identical_across_backends(self, algorithm):
        shapes = []
        for backend in ("python", "numpy"):
            _, problem = _problem(backend)
            result = make_builder(algorithm).build(
                problem, RngStream(42, label="bk/N32").spawn("build")
            )
            shapes.append(_forest_shape(result))
        assert shapes[0] == shapes[1]
        assert shapes[0]["satisfied"]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_undisseminated_source_edge(self, name):
        """An undisseminated source is the provisional best even at rfc 0;
        a saturated one leaves the join without a parent."""
        _, problem = _problem(name)
        backend = problem.array_backend
        state = BuilderState(problem)
        stream = problem.groups[0].stream
        source = stream.site
        tree = OverlayForest().tree(stream)
        assert not tree.disseminated
        bound = problem.latency_bound_ms
        subscriber = next(
            i
            for i in range(problem.n_nodes)
            if i != source and problem.edge_cost(source, i) < bound
        )
        state.m_hat[source] = problem.outbound_limit(source)
        assert rfc(state, source) == 0
        assert backend.parent_scan(problem, state, tree, subscriber) == source
        state.dout[source] = problem.outbound_limit(source)
        assert backend.parent_scan(problem, state, tree, subscriber) is None


@needs_numpy
class TestDataPlaneEquivalence:
    @pytest.mark.parametrize("duration_ms", [1000.0, 8000.0])
    def test_fast_plane_reports_identical(self, duration_ms):
        from repro.perf.sweep import reports_equal

        reports = []
        for backend in ("python", "numpy"):
            session, problem = _problem(backend, n_sites=16)
            result = make_builder("rj").build(
                problem, RngStream(42, label="bk/N16").spawn("build")
            )
            plane = FastDataPlane(
                session, result.forest, RngStream(42).spawn("dataplane")
            )
            reports.append(plane.run(duration_ms=duration_ms))
        assert reports_equal(reports[0], reports[1])


class TestBulkDijkstraEquivalence:
    def test_scipy_rows_match_heapq_rows(self):
        pytest.importorskip("scipy")
        bulk = load_backbone("synthetic-128")
        reference = load_backbone("synthetic-128")
        # Instance attribute shadows the class gate: this copy can never
        # take the scipy path and stays on the pure-python Dijkstra.
        reference._BULK_SSSP_MIN_POPS = 10**9
        fast = bulk.dense_cost_matrix()
        slow = reference.dense_cost_matrix()
        assert fast.rows() == slow.rows()
