"""Reference round paths and the reference array backend, for the
equivalence suites.

The membership server works its round path out from ``rebuild_policy``
(scratch assembly under ``always`` or with no previous problem, diffed
assembly from the dirty-registration delta otherwise).  The slower paths
those replaced are not product configuration: they live here, as
overrides of one server *instance's* assembly step, so the digest suites
can keep pinning the product path to them.

The same goes for the array backend: production code takes whatever
``resolve_backend()`` selects for the install.  :func:`use_array_backend`
pins that selection, so the cross-backend suites can build the same
session under the pure-python reference and under numpy.

And for the repair: :class:`~repro.core.incremental.IncrementalRepairer`
shares untouched trees with the previous round and adjusts a copied
ledger.  :func:`replay_repair` is the repair it replaced — every
surviving edge replayed into a fresh forest and a fresh ledger — kept as
the oracle the delta repair is pinned to; :func:`use_replay_repair`
makes one server repair with it.  ``churn_rate`` walks parent maps and
fails on a forest whose receivers are not its satisfied requests;
:func:`_churn_rate_by_request` compares request by request, the oracle
it is pinned to.

And for the analytic data planes: ``FastDataPlane`` and
``SampledDataPlane`` run one forest-level (receivers x frames) kernel.
:func:`per_delivery_fast_run` and :func:`per_delivery_sampled_run` are
the per-tree, per-delivery loops it replaced, on plain lists with one
``uniform()`` call per draw — the oracle the kernel is pinned to, bit
for bit, on both array backends.

And for the φ detector: ``PhiAccrualDetector.phi`` returns 0 inside the
grace period without scoring and reads a per-peer (mean, std) cached
until the window changes.  :func:`window_walk_phi` walks the window on
every question, as ``phi`` did before — the oracle it is pinned to.

And for the directive install: ``RPAgent.apply_directive`` reads a
site's tables from one pass over the directive's edges.
:func:`edges_of_site` and :func:`streams_received_by` scan every edge
once per site, as the install did before — the oracle it is pinned to.

And for the id types: ``StreamId`` and ``SubscriptionRequest`` are
tuples.  :class:`DataclassStreamId` and :class:`DataclassRequest` are the
frozen, ordered dataclasses they were, kept as the oracles for ``repr``,
``hash``, order and validation.

And for the session set-up: ``synthetic_backbone`` computes each PoP
pair's distance once and shuffles candidate indices, and ``Topology``
answers every shortest-path question from one integer-indexed Dijkstra.
:func:`reference_synthetic_backbone` and :func:`dict_dijkstra` are the
loops they replaced, kept as the oracles they are pinned to;
:func:`pairwise_costs` builds from :func:`dict_dijkstra` the nested
matrix ``Topology.dense_cost_matrix`` must equal, and :func:`path_cost`
reads one cost from the product's matrix.

And for the partition table: ``FaultyLink.partitioned`` reads a per-site
table built once.  :func:`partition_covers` is the test each window
answered on its own, the oracle the table is pinned to.

And for the parent scan: every join takes the first member of largest
positive rfc.  :func:`_parent_by_rule` spells that rule out over the
whole member list — the oracle the scan is pinned to — and, beside it,
the min-cost and first-fit choices it is measured against;
:func:`use_parent_rule` makes every join of a block choose by one.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

import repro.core.backend as backend_mod
import repro.pubsub.detector as detector_mod
from repro.core.base import BuildResult
from repro.core.correlation import CorrelatedRandomJoinBuilder
from repro.core.forest import OverlayForest
from repro.core.incremental import (
    IncrementalRepairer,
    RepairReport,
    _receivers_are_satisfied,
    churn_rate,
)
from repro.sim.invariants import InvariantAuditor
from repro.util.floats import left_sum
from repro.core.model import SubscriptionRequest
from repro.core.node_join import try_join
from repro.core.problem import ForestProblem
from repro.core.state import BuilderState
from repro.errors import OverlayError, SubscriptionError, TopologyError
from repro.media.frames import FrameClock
from repro.pubsub.faults import PartitionWindow
from repro.pubsub.membership import MembershipServer
from repro.pubsub.messages import OverlayDirective
from repro.scenarios.runtime import ScenarioRuntime
from repro.scenarios.spec import ScenarioSpec
from repro.sim.dataplane import (
    DataPlaneReport,
    DeliveryStats,
    DeliveryTable,
    FastDataPlane,
    SampledDataPlane,
    latency_percentiles,
)
from repro.topology.geo import GeoPoint, haversine_km
from repro.topology.graph import Topology
from repro.topology.synthetic import SyntheticBackboneConfig
from repro.util.rng import RngStream


@contextmanager
def use_array_backend(name: str):
    """Pin ``resolve_backend()`` to ``"python"`` or ``"numpy"`` for the block.

    Everything constructed inside the block binds the pinned backend and
    keeps it afterwards; the previous selection is restored on exit.
    """
    previous = backend_mod._selected
    backend_mod._selected = {
        "python": lambda: backend_mod._python_backend,
        "numpy": backend_mod.NumpyBackend,
    }[name]()
    try:
        yield backend_mod._selected
    finally:
        backend_mod._selected = previous


def _parent_by_rule(problem, state, tree, subscriber, rule: str):
    """Sec. 4.3.1's parent choice spelled out over the whole member list.

    Eligible: out-degree free and the tree path plus the edge under the
    latency bound.  ``"first-fit"`` takes the first eligible member in
    attach order, ``"min-cost"`` the first cheapest, ``"max-rfc"`` (the
    product's rule) the first member of largest strictly positive rfc —
    or the source while its stream is undisseminated (the tree is then
    the source alone).
    """
    eligible = []
    for member in tree.children_map():
        cost = tree.cost_from_source(member) + problem.edge_cost(
            member, subscriber
        )
        if state.outbound_free(member) and cost < problem.latency_bound_ms:
            eligible.append((member, cost))
    if not eligible:
        return None
    if rule == "first-fit":
        return eligible[0][0]
    if rule == "min-cost":
        return min(eligible, key=lambda entry: entry[1])[0]
    if not tree.disseminated:
        return tree.source
    outbound = problem.outbound_limits()

    def rfc(member: int) -> int:
        return outbound[member] - state.dout[member] - state.m_hat[member]

    positive = [member for member, _ in eligible if rfc(member) > 0]
    return max(positive, key=rfc) if positive else None


@contextmanager
def use_parent_rule(rule: str):
    """Make every join of the block pick its parent by ``rule``."""

    def scan(problem, state, tree, subscriber):
        return _parent_by_rule(problem, state, tree, subscriber, rule)

    with pytest.MonkeyPatch.context() as patch:
        for backend in (backend_mod.ArrayBackend, backend_mod.NumpyBackend):
            patch.setattr(backend, "parent_scan", staticmethod(scan))
        yield


def use_reference_path(
    server: MembershipServer, assembly: str | None = None
) -> MembershipServer:
    """Pin ``server`` to a reference path; returns it for chaining.

    ``assembly`` forces how every round after the first is assembled,
    whatever the rebuild policy: ``"scratch"`` re-derives the problem
    from the session, ``"diffed"`` evolves it from the dirty-registration
    delta, ``"scan"`` evolves it by diffing a full workload re-scan
    (:meth:`ForestProblem.evolve`).
    """
    if assembly is not None:
        step = {
            "scratch": lambda previous: server._assemble_scratch(),
            "diffed": server._assemble_diffed,
            "scan": lambda previous: _assemble_scanned(server, previous),
        }[assembly]

        def assemble() -> ForestProblem:
            previous = server._last_problem
            if previous is None:
                problem = server._assemble_scratch()
            else:
                problem = step(previous)
            server._last_problem = problem
            return problem

        server._assemble_problem = assemble
    return server


def _assemble_scanned(
    server: MembershipServer, previous: ForestProblem
) -> ForestProblem:
    problem = ForestProblem.evolve(previous, server.global_workload())
    server._reset_group_index(problem)
    server._assemblies_diffed += 1
    server._last_assembly = "diffed"
    return problem


def reference_runtime(
    spec: ScenarioSpec, assembly: str | None = None, **runtime_options
) -> ScenarioRuntime:
    """A not-yet-run :class:`ScenarioRuntime` whose server is pinned."""
    runtime = ScenarioRuntime(spec, **runtime_options)
    use_reference_path(runtime.server, assembly)
    return runtime


def replay_repair(
    repairer: IncrementalRepairer, previous: BuildResult, problem: ForestProblem
) -> RepairReport:
    """The full-replay repair: the oracle for ``repairer.repair``.

    Walks the whole previous forest top-down into a fresh
    :class:`OverlayForest` and a fresh :class:`BuilderState`, re-validating
    every carried edge, then re-joins orphans and every request the carry
    did not serve in ``problem.all_requests()`` order.  Nothing is shared
    with ``previous`` (``rewritten`` names every stream).
    """
    forest = OverlayForest()
    state = BuilderState(problem)
    prev_forest = previous.forest
    prev_satisfied = set(prev_forest.satisfied)
    new_streams = {group.stream for group in problem.groups}
    dropped_trees = sum(
        1
        for stream, tree in prev_forest.trees.items()
        if stream not in new_streams and len(tree) > 1
    )

    orphans: list[SubscriptionRequest] = []
    handled: set[SubscriptionRequest] = set()
    for group in sorted(problem.groups, key=lambda g: g.stream):
        state.open_group(group.stream)
        tree = forest.tree(group.stream)
        old_tree = prev_forest.trees.get(group.stream)
        if old_tree is None:
            continue
        for node in list(old_tree.children_map()):
            if node == old_tree.source:
                continue
            request = SubscriptionRequest(subscriber=node, stream=group.stream)
            if node not in group.subscribers or request not in prev_satisfied:
                continue
            handled.add(request)
            parent = old_tree.parent(node)
            if parent in tree and repairer._edge_fits(
                problem, state, tree, parent, node
            ):
                tree.attach(parent, node, problem.edge_cost(parent, node))
                state.record_attach(tree, parent, node)
                forest.satisfied.append(request)
            else:
                orphans.append(request)
    carried = len(forest.satisfied)

    swapper = (
        CorrelatedRandomJoinBuilder(repair_passes=0) if repairer.use_swap else None
    )

    def rejoin(request: SubscriptionRequest) -> bool:
        outcome = try_join(
            problem, state, forest.tree(request.stream), request.subscriber
        )
        if outcome.accepted:
            forest.satisfied.append(request)
            return True
        if swapper is not None and swapper.on_rejected(
            problem, state, forest, request
        ):
            return True
        forest.rejected.append((request, outcome.reason))
        return False

    rejoined = sum(1 for request in orphans if rejoin(request))
    fresh_joined = fresh_rejected = 0
    for request in problem.all_requests():
        if request in handled:
            continue
        if rejoin(request):
            fresh_joined += 1
        else:
            fresh_rejected += 1

    result = BuildResult(
        problem=problem, forest=forest, state=state, algorithm=previous.algorithm
    )
    satisfied_now = set(forest.satisfied)
    lost = sum(1 for request in handled if request not in satisfied_now)
    moved = sum(
        1
        for request in orphans
        if request in satisfied_now
        and forest.trees[request.stream].parent(request.subscriber)
        != prev_forest.trees[request.stream].parent(request.subscriber)
    )
    return RepairReport(
        result=result,
        feasible=lost == 0,
        carried=carried,
        orphaned=len(orphans),
        rejoined=rejoined,
        lost=lost,
        fresh_joined=fresh_joined,
        fresh_rejected=fresh_rejected,
        dropped_trees=dropped_trees,
        moved=moved,
        rewritten=tuple(prev_forest.trees.keys() | forest.trees.keys()),
    )


def result_snapshot(result: BuildResult) -> tuple:
    """Everything a later round could corrupt in ``result``, by value.

    Trees with member order, per-parent child order, path costs and the
    dissemination flag (in forest order); the satisfied and rejected
    lists; the degree ledger, ``m̂``, ``m`` and the opened set.
    """
    forest, state = result.forest, result.state
    return (
        [
            (
                stream,
                list(tree.children_map()),
                [list(kids) for kids in tree.children_map().values()],
                dict(tree.parent_map()),
                dict(tree.path_costs()),
                tree.disseminated,
            )
            for stream, tree in forest.trees.items()
        ],
        list(forest.satisfied),
        list(forest.rejected),
        list(state.din),
        list(state.dout),
        list(state.m_hat),
        list(state.m),
        set(state.opened()),
    )


def _churn_rate_by_request(before: BuildResult, after: BuildResult) -> float:
    before_parents = {
        request: before.forest.trees[request.stream].parent(request.subscriber)
        for request in before.satisfied
    }
    common = [
        request
        for request in after.satisfied
        if request in before_parents
    ]
    if not common:
        return 0.0
    moved = sum(
        1
        for request in common
        if after.forest.trees[request.stream].parent(request.subscriber)
        != before_parents[request]
    )
    return moved / len(common)


#: The :class:`RepairReport` fields that are plain counts.
REPORT_COUNTS = tuple(
    field.name
    for field in dataclasses.fields(RepairReport)
    if field.name not in ("result", "rewritten")
)


def repair_checked_against_replay(
    repairer: IncrementalRepairer, previous: BuildResult, problem: ForestProblem
) -> RepairReport:
    """``repairer.repair(previous, problem)``, pinned to :func:`replay_repair`.

    Asserts that the delta repair left ``previous`` untouched, equals
    the replay in every tree (attach order included), in the rejected
    sequence, the satisfied set, the ledger and every report count,
    audits clean, reports the disruption :func:`churn_rate` measures,
    and shares with ``previous`` every tree it does not list as
    rewritten.  Returns the delta repair's report.
    """
    before = result_snapshot(previous)
    # The class's own repair, whatever stand-in the instance carries.
    report = IncrementalRepairer.repair(repairer, previous, problem)
    assert result_snapshot(previous) == before, "repair mutated `previous`"
    oracle = replay_repair(repairer, previous, problem)
    assert result_snapshot(previous) == before

    got, want = result_snapshot(report.result), result_snapshot(oracle.result)
    assert got[0] == want[0], "trees differ from the replay"
    assert sorted(got[1]) == sorted(want[1]), "satisfied sets differ"
    assert got[2:] == want[2:], "rejected sequence or ledger differ"
    for name in REPORT_COUNTS:
        assert getattr(report, name) == getattr(oracle, name), name
    assert report.touched == oracle.touched
    assert report.disruption == _churn_rate_by_request(previous, report.result)
    if _receivers_are_satisfied(previous):
        assert report.disruption == churn_rate(previous, report.result)
    else:
        with pytest.raises(OverlayError):
            churn_rate(previous, report.result)

    report.result.verify()
    violations = InvariantAuditor().audit_build(report.result)
    assert not violations, [violation.render() for violation in violations]

    rewritten = set(report.rewritten)
    old_trees, new_trees = previous.forest.trees, report.result.forest.trees
    assert old_trees.keys() - new_trees.keys() <= rewritten
    for stream, tree in new_trees.items():
        if stream in rewritten:
            assert tree is not old_trees.get(stream)
        else:
            assert tree is old_trees[stream], f"{stream} copied but not listed"
    state, old_state = report.result.state, previous.state
    assert state is not old_state and state.problem is problem
    assert state.dout is not old_state.dout and state.m_hat is not old_state.m_hat
    return report


def use_replay_repair(server: MembershipServer) -> MembershipServer:
    """Make ``server`` repair by full replay; returns it for chaining."""
    repairer = server._repairer
    repairer.repair = lambda previous, problem: replay_repair(
        repairer, previous, problem
    )
    return server


def check_repairs_against_replay(server: MembershipServer) -> MembershipServer:
    """Make every repair of ``server`` assert itself against the replay."""
    repairer = server._repairer
    repairer.repair = lambda previous, problem: repair_checked_against_replay(
        repairer, previous, problem
    )
    return server


def window_walk_phi(
    detector: detector_mod.PhiAccrualDetector, peer: int, now: float
) -> float:
    """``detector.phi(peer, now)``, with the window's mean and variance
    recomputed on every call and no grace shortcut."""
    last = detector._last_arrival.get(peer)
    if last is None:
        return 0.0
    elapsed = now - last
    if elapsed <= 0:
        return 0.0
    samples = detector._samples[peer]
    mean = left_sum(samples) / len(samples)
    variance = left_sum((s - mean) ** 2 for s in samples) / len(samples)
    std = max(math.sqrt(variance), detector.min_std_ms)
    y = (elapsed - mean - detector.acceptable_pause_ms) / std
    if y <= 0:
        return 0.0
    exponent = -y * (1.5976 + 0.070566 * y * y)
    if exponent < -690.0:
        return 300.0
    e = math.exp(exponent)
    p_later = e / (1.0 + e)
    return -math.log10(max(p_later, detector_mod._MIN_P_LATER))


def _camera(plane, stream_id, duration_ms: float):
    """One stream's capture times and frame sizes, a draw at a time."""
    descriptor = plane.session.registry.describe(stream_id)
    clock = FrameClock(
        stream_id=stream_id, bandwidth_mbps=descriptor.bandwidth_mbps, fps=plane.fps
    )
    camera_rng = plane.rng.spawn(f"camera-{stream_id}")
    times = clock.capture_times(duration_ms)
    return times, [clock.sample_size_bytes(camera_rng) for _ in times]


def table_of(deliveries: dict) -> DeliveryTable:
    """The report table of a ``{(stream, node): DeliveryStats}`` dict, in its order."""
    rows = [(*key, *stats) for key, stats in deliveries.items()]
    return DeliveryTable(*map(list, zip(*rows))) if rows else DeliveryTable(
        [], [], [], [], []
    )


def per_delivery_fast_run(plane: FastDataPlane, duration_ms: float) -> DataPlaneReport:
    """``plane.run(duration_ms)`` as the per-tree list loop computed it."""
    deliveries: dict = {}
    bytes_sent = {site.index: 0 for site in plane.session.sites}
    captured = delivered = 0
    cost_ms = plane.session.cost_ms
    for stream_id, tree in plane.forest.trees.items():
        if not tree.receivers():
            continue  # nobody subscribed; camera stays local
        times, sizes = _camera(plane, stream_id, duration_ms)
        n_frames = len(times)
        stream_bytes = sum(sizes)
        captured += n_frames
        source = tree.source
        # Per-member arrival-time vectors, parents before children
        # (path_costs iterates in attach order).
        arrivals = {source: times}
        for node in tree.path_costs():
            if node == source:
                continue
            parent = tree.parent(node)
            hop = cost_ms(parent, node)
            arrivals[node] = [t + hop for t in arrivals[parent]]
            bytes_sent[parent] += stream_bytes
            latencies = [a - t for a, t in zip(arrivals[node], times)]
            deliveries[(stream_id, node)] = DeliveryStats(
                n_frames, left_sum(latencies), max(0.0, max(latencies))
            )
            delivered += n_frames
    return DataPlaneReport(
        duration_ms=duration_ms,
        frames_captured=captured,
        frames_delivered=delivered,
        deliveries=table_of(deliveries),
        bytes_sent_by_site=bytes_sent,
        latency_bound_ms=plane.latency_bound_ms,
    )


def per_delivery_sampled_run(
    plane: SampledDataPlane, duration_ms: float
) -> DataPlaneReport:
    """``plane.run(duration_ms)`` as the per-tree list loop computed it."""
    deliveries: dict = {}
    bytes_sent = {site.index: 0 for site in plane.session.sites}
    captured = delivered = dropped = 0
    all_latencies: list[float] = []
    cost_ms = plane.session.cost_ms
    jitter, loss = plane.jitter_ms, plane.loss_probability
    noise_rng = plane.rng.spawn("network")
    for stream_id, tree in plane.forest.trees.items():
        if not tree.receivers():
            continue  # nobody subscribed; camera stays local
        times, sizes = _camera(plane, stream_id, duration_ms)
        n_frames = len(times)
        captured += n_frames
        source = tree.source
        arrivals = {source: times}
        # Survival masks down each path; None means "all alive" (the
        # zero-loss case never materializes a mask).
        alive: dict = {source: None}
        for node in tree.path_costs():
            if node == source:
                continue
            parent = tree.parent(node)
            hop = cost_ms(parent, node)
            # Per-hop draw order mirrors LatencyNetwork.send: the loss
            # draw first, then the jitter draw.
            node_alive = parent_alive = alive[parent]
            if loss > 0.0:
                node_alive = [
                    noise_rng.uniform(0.0, 1.0) >= loss for _ in range(n_frames)
                ]
                if parent_alive is not None:
                    node_alive = [a and b for a, b in zip(parent_alive, node_alive)]
            node_arrivals = [t + hop for t in arrivals[parent]]
            if jitter > 0.0:
                draws = [noise_rng.uniform(0.0, jitter) for _ in range(n_frames)]
                node_arrivals = [a + d for a, d in zip(node_arrivals, draws)]
            arrivals[node] = node_arrivals
            alive[node] = node_alive
            if parent_alive is None:
                bytes_sent[parent] += sum(sizes)
            else:
                bytes_sent[parent] += sum(
                    size for size, kept in zip(sizes, parent_alive) if kept
                )
            latencies = [a - t for a, t in zip(node_arrivals, times)]
            if node_alive is not None:
                latencies = [v for v, kept in zip(latencies, node_alive) if kept]
            stats = DeliveryStats()
            if latencies:
                stats = DeliveryStats(
                    len(latencies), left_sum(latencies), max(0.0, max(latencies))
                )
                all_latencies.extend(latencies)
            deliveries[(stream_id, node)] = stats
            delivered += len(latencies)
            dropped += n_frames - len(latencies)
    return DataPlaneReport(
        duration_ms=duration_ms,
        frames_captured=captured,
        frames_delivered=delivered,
        deliveries=table_of(deliveries),
        bytes_sent_by_site=bytes_sent,
        latency_bound_ms=plane.latency_bound_ms,
        sends_dropped=dropped,
        latency_percentiles=latency_percentiles(all_latencies),
    )


def edges_of_site(directive: OverlayDirective, site: int) -> list[tuple]:
    """Outgoing forwarding entries of ``site``: (stream, child), in edge order."""
    return [
        (stream, child)
        for stream, parent, child in directive.edges
        if parent == site
    ]


def streams_received_by(directive: OverlayDirective, site: int) -> set:
    """Streams that arrive at ``site`` on some tree edge."""
    return {stream for stream, _, child in directive.edges if child == site}


def installed_tables(directive: OverlayDirective, site: int) -> tuple[dict, set]:
    """The forwarding and receiving tables a full install gave ``site``
    when it scanned every edge for it."""
    forwarding: dict = {}
    for stream, child in edges_of_site(directive, site):
        forwarding.setdefault(stream, []).append(child)
    return forwarding, streams_received_by(directive, site)


@dataclass(frozen=True, order=True)
class DataclassStreamId:
    """``StreamId`` as the frozen, ordered dataclass it was."""

    __qualname__ = "StreamId"  # the name its ``repr`` printed

    site: int
    index: int

    def __post_init__(self) -> None:
        if self.site < 0:
            raise SubscriptionError(f"negative site index: {self.site}")
        if self.index < 0:
            raise SubscriptionError(f"negative stream index: {self.index}")
        object.__setattr__(self, "_hash", hash((self.site, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"s{self.site}^{self.index}"


@dataclass(frozen=True, order=True)
class DataclassRequest:
    """``SubscriptionRequest`` as the frozen, ordered dataclass it was."""

    __qualname__ = "SubscriptionRequest"

    subscriber: int
    stream: DataclassStreamId

    def __post_init__(self) -> None:
        if self.subscriber < 0:
            raise SubscriptionError(f"negative subscriber index: {self.subscriber}")
        if self.subscriber == self.stream.site:
            raise SubscriptionError(
                f"site {self.subscriber} cannot subscribe to its own stream "
                f"{self.stream}"
            )

    @property
    def source(self) -> int:
        return self.stream.site

    def __str__(self) -> str:
        return f"r{self.subscriber}({self.stream})"


def reference_synthetic_backbone(
    config: SyntheticBackboneConfig, rng: RngStream
) -> Topology:
    """``synthetic_backbone`` as it was: three distances per PoP pair and a
    shuffled list of ``(id, id, km)`` candidate tuples."""
    config.validate()
    topology = Topology(name=f"synthetic-{config.n_pops}")
    points: list[tuple[str, GeoPoint]] = []
    names = [name for name, *_ in config.regions]
    weights = [weight for _, weight, *_ in config.regions]
    boxes = {name: box for name, _, *box in config.regions}
    for index in range(config.n_pops):
        region = rng.weighted_choice(names, weights)
        lat_min, lat_max, lon_min, lon_max = boxes[region]
        point = GeoPoint(rng.uniform(lat_min, lat_max), rng.uniform(lon_min, lon_max))
        pop_id = f"pop-{index:03d}-{region}"
        topology.add_pop(pop_id, point)
        points.append((pop_id, point))

    # Connectivity first: greedily attach each new PoP to its nearest
    # already-placed PoP (a randomized nearest-neighbour tree).
    for index in range(1, len(points)):
        pop_id, point = points[index]
        nearest = min(
            points[:index], key=lambda entry: haversine_km(point, entry[1])
        )
        topology.add_link(pop_id, nearest[0])

    # Waxman extra links: P(u, v) = beta * exp(-d / (alpha * d_max)).
    max_distance = max(
        haversine_km(pa, pb)
        for i, (_, pa) in enumerate(points)
        for _, pb in points[i + 1 :]
    ) if len(points) > 1 else 1.0
    scale = config.waxman_alpha * max(max_distance, 1e-9)
    target_links = int(config.n_pops * config.extra_degree / 2)
    candidates = [
        (a_id, b_id, haversine_km(a_pt, b_pt))
        for i, (a_id, a_pt) in enumerate(points)
        for b_id, b_pt in points[i + 1 :]
    ]
    rng.shuffle(candidates)
    added = 0
    existing = {frozenset((link.a, link.b)) for link in topology.links()}
    for a_id, b_id, dist in candidates:
        if added >= target_links:
            break
        if frozenset((a_id, b_id)) in existing:
            continue
        probability = config.waxman_beta * math.exp(-dist / scale)
        if rng.random() < probability:
            topology.add_link(a_id, b_id)
            existing.add(frozenset((a_id, b_id)))
            added += 1
    return topology


def neighbors(topology: Topology, pop_id: str) -> dict[str, float]:
    """``pop_id``'s adjacent PoPs and link costs, in adjacency order."""
    return dict(topology._adj[pop_id])


def dict_dijkstra(topology: Topology, source: str) -> dict[str, float]:
    """Single-source costs from the heap Dijkstra over PoP-id-keyed dicts
    that ``Topology`` ran before its integer-indexed rows; unreachable
    PoPs are absent."""
    dist: dict[str, float] = {source: 0.0}
    heap: list[tuple[float, str]] = [(0.0, source)]
    done: set[str] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nbr, cost in neighbors(topology, node).items():
            nd = d + cost
            if nd < dist.get(nbr, float("inf")):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return dist


def pairwise_costs(topology: Topology, pops: list[str]) -> dict[str, dict[str, float]]:
    """``matrix[a][b]`` over ``pops``, one :func:`dict_dijkstra` per row:
    the nested matrix the dense one is pinned to."""
    for pop in pops:
        if pop not in topology.pop_ids:
            raise TopologyError(f"unknown PoP {pop!r}")
    rows = {a: dict_dijkstra(topology, a) for a in pops}
    return {a: {b: rows[a][b] for b in pops} for a in pops}


def path_cost(topology: Topology, a: str, b: str) -> float:
    """The one-way shortest-path cost from ``a`` to ``b``, read from
    ``Topology.dense_cost_matrix`` over the two PoPs."""
    return topology.dense_cost_matrix([a, b]).edge_cost(0, 1)


def partition_covers(window: PartitionWindow, site: int, time_ms: float) -> bool:
    """True when ``window`` cuts ``site``'s link at ``time_ms``."""
    return site == window.site and window.start_ms <= time_ms < window.end_ms
