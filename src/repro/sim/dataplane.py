"""Frame dissemination over a constructed overlay forest.

This is the validation loop the paper's latency bound exists for: every
camera emits frames at 15 fps, the source RP relays each frame down its
stream's multicast tree, and every subscriber records the end-to-end
delivery latency.  With zero jitter the measured latency of every
delivery equals the tree path cost, which the builder guaranteed to be
below ``B_cost`` — the report cross-checks exactly that.

Three implementations share the :class:`DataPlaneReport` contract:

* :class:`ForestDataPlane` — the event-driven simulator: every hop of
  every frame is a scheduled callback.  Required whenever jitter, loss
  or duplication perturb deliveries, and the only plane that models the
  NACK/repair recovery layer (receivers detect sequence gaps, NACK up
  their tree parent, repairs cascade back down the affected subtree).
* :class:`FastDataPlane` — the analytic batched plane: with zero
  jitter/loss the run is fully determined by the capture schedule and
  the hop costs, so the report is computed with (members x frames)
  array arithmetic and **no** simulator events.  It reproduces the
  event-driven report bit for bit, including the floating-point
  accumulation order.
* :class:`SampledDataPlane` — the sampled-percentile noisy plane:
  per-hop jitter/loss drawn in bulk and convolved along tree paths, so
  noisy sweeps report latency percentiles without the event heap.  It
  models the same noise *distribution* as the event plane (the event
  plane stays the oracle).

The analytic planes are one forest-level kernel (:func:`_disseminate`,
the fast plane its zero-noise case); :func:`make_dataplane` dispatches
between the three automatically.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import indexOf
from typing import NamedTuple

from repro.core.forest import OverlayForest
from repro.errors import SimulationError
from repro.media.frames import Frame3D, FrameClock, batched_sizes
from repro.media.source import CameraSource
from repro.session.session import TISession
from repro.session.streams import StreamId
from repro.sim.engine import Simulator
from repro.sim.network import LatencyNetwork
from repro.util.floats import left_sum
from repro.util.rng import RngStream
from repro.util.validation import (
    check_at_least,
    check_finite_non_negative,
    check_positive,
    check_probability,
)

#: Percentiles every latency distribution is summarized at.
LATENCY_QUANTILES = (50, 90, 99)


def latency_percentiles(latencies: list[float]) -> dict[int, float]:
    """Nearest-rank :data:`LATENCY_QUANTILES` of a latency sample.

    Nearest-rank (``sorted[ceil(q/100 * n) - 1]``) rather than an
    interpolating estimator: the result is always an observed sample,
    identical across array backends, and has no float blending to
    drift.  Empty input yields an empty dict.
    """
    if not latencies:
        return {}
    ordered = sorted(latencies)
    n = len(ordered)
    return {
        q: ordered[max(1, math.ceil(q / 100.0 * n)) - 1] for q in LATENCY_QUANTILES
    }


class DeliveryStats(NamedTuple):
    """Per (stream, subscriber) delivery accounting, an immutable value."""

    frames: int = 0
    total_latency_ms: float = 0.0
    max_latency_ms: float = 0.0


@dataclass(eq=False, slots=True)
class DeliveryTable(Mapping):
    """``(stream, subscriber) -> DeliveryStats``, stored as columns.

    Row ``r`` is the pair ``(streams[r], nodes[r])`` with ``frames[r]``
    deliveries, latency sum ``totals[r]`` and maximum ``maxima[r]``, in
    the order the pairs first received a frame.  The columns hold ints,
    floats and the trees' own :class:`StreamId` objects and each
    :class:`DeliveryStats` is built when read, so the table is six
    objects to the garbage collector at any size; for the same reason
    no index is kept and a lookup scans the rows.
    """

    streams: list[StreamId]
    nodes: list[int]
    frames: list[int]
    totals: list[float]
    maxima: list[float]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return zip(self.streams, self.nodes)

    def __getitem__(self, key) -> DeliveryStats:
        try:
            row = indexOf(self, key)
        except ValueError:
            raise KeyError(key) from None
        return DeliveryStats(self.frames[row], self.totals[row], self.maxima[row])

    def items(self) -> list[tuple[tuple[StreamId, int], DeliveryStats]]:
        """Every ``(pair, stats)`` in row order, read in one pass."""
        return list(zip(self, self.values()))

    def values(self) -> list[DeliveryStats]:
        """Every row's stats in row order, read in one pass."""
        return list(map(DeliveryStats, self.frames, self.totals, self.maxima))


@dataclass
class DataPlaneReport:
    """Aggregated results of one data-plane run."""

    duration_ms: float
    frames_captured: int
    frames_delivered: int
    deliveries: DeliveryTable
    bytes_sent_by_site: dict[int, int]
    latency_bound_ms: float
    # -- data-chaos outcome counters (all zero on deterministic runs,
    #    so zero-noise reports stay field-identical across planes) ----
    #: Network messages dropped by the loss model (frames + NACKs + repairs).
    sends_dropped: int = 0
    #: Arrivals discarded as already-seen (duplication + repair-cascade overlap).
    duplicates_discarded: int = 0
    #: Gap-repair requests sent up tree parents (includes retries).
    nacks_sent: int = 0
    #: Buffered frames retransmitted in answer to a NACK.
    repairs_sent: int = 0
    #: Missing (receiver, frame) instances recovered via NACK/repair.
    frames_recovered: int = 0
    #: Missing instances abandoned (retries or repair deadline exhausted).
    frames_unrecovered: int = 0
    #: Nearest-rank delivery-latency percentiles (``{50: ..., 90: ...,
    #: 99: ...}``); filled by the sampled plane always, by the event
    #: plane on request, empty otherwise.
    latency_percentiles: dict[int, float] = field(default_factory=dict)

    @property
    def mean_latency_ms(self) -> float:
        """Mean end-to-end latency across all deliveries."""
        count = sum(self.deliveries.frames)
        return left_sum(self.deliveries.totals) / count if count else 0.0

    @property
    def max_latency_ms(self) -> float:
        """Worst end-to-end latency observed."""
        return max(self.deliveries.maxima, default=0.0)

    def bound_violations(self) -> int:
        """Subscriber-stream pairs whose max latency breached the bound."""
        bound = self.latency_bound_ms
        return sum(1 for peak in self.deliveries.maxima if peak >= bound)

    def out_mbps_by_site(self) -> dict[int, float]:
        """Mean outbound data-plane rate per site over the run."""
        if self.duration_ms <= 0:
            return {site: 0.0 for site in self.bytes_sent_by_site}
        seconds = self.duration_ms / 1000.0
        return {
            site: bytes_sent * 8.0 / 1e6 / seconds
            for site, bytes_sent in self.bytes_sent_by_site.items()
        }


@dataclass
class _PendingRepair:
    """One missing (stream, site, sequence) instance under repair."""

    attempts: int
    deadline_ms: float


class _Plane:
    """What every plane is built from and which cameras it runs."""

    def __init__(
        self, session: TISession, forest: OverlayForest, rng: RngStream,
        fps: float, latency_bound_ms: float,
    ) -> None:
        self.session = session
        self.forest = forest
        self.rng = rng
        self.fps = fps
        # NaN-safe: against a NaN bound no latency is ever a violation.
        self.latency_bound_ms = check_positive("latency_bound_ms", latency_bound_ms)

    def _cameras(self, duration_ms: float):
        """The streams a run of ``duration_ms`` captures, in forest order.

        Yields one ``(tree, clock, camera stream)`` per tree somebody
        receives; every plane takes its cameras from here, so all three
        frame the same streams with the same size draws.  The horizon is
        checked here for all of them: captures repeat until they pass
        it, which never happens for ``inf`` or NaN.
        """
        check_finite_non_negative("duration_ms", duration_ms)
        for stream_id, tree in self.forest.trees.items():
            if not tree.parent_map():
                continue  # nobody subscribed; camera stays local
            descriptor = self.session.registry.describe(stream_id)
            clock = FrameClock(stream_id, descriptor.bandwidth_mbps, fps=self.fps)
            yield tree, clock, self.rng.spawn(f"camera-{stream_id}")


class ForestDataPlane(_Plane):
    """Runs the media data plane over a built forest (event-driven).

    With ``nack_enabled`` the plane layers gap recovery on top of the
    lossy dissemination: every node buffers the frames it holds, a
    receiver that observes a sequence gap NACKs its tree parent, the
    parent retransmits from its buffer (or escalates its own repair
    upward when its copy was lost too), and the repaired frame cascades
    back down the subtree through the ordinary relay path — receivers
    that already hold it discard the duplicate.  Each missing instance
    is retried on a per-link round-trip timer, bounded by
    ``max_repair_attempts`` NACKs and a repair deadline of
    ``repair_deadline_factor * latency_bound_ms`` from loss detection;
    exhausting either gives the instance up as unrecovered.  A tail
    audit after the last capture catches losses no later frame could
    reveal.  At zero noise none of this machinery draws RNG or sends
    messages, so NACK-armed deterministic runs stay bit-identical to
    :class:`FastDataPlane`.
    """

    #: Dispatch tag (see :func:`make_dataplane`).
    kind = "event"

    def __init__(
        self,
        session: TISession,
        forest: OverlayForest,
        rng: RngStream,
        fps: float = 15.0,
        jitter_ms: float = 0.0,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        latency_bound_ms: float = 120.0,
        nack_enabled: bool = False,
        max_repair_attempts: int = 3,
        repair_deadline_factor: float = 2.0,
        collect_percentiles: bool = False,
    ) -> None:
        check_at_least("max_repair_attempts", max_repair_attempts, 1)
        check_finite_non_negative("repair_deadline_factor", repair_deadline_factor)
        super().__init__(session, forest, rng, fps, latency_bound_ms)
        self.nack_enabled = nack_enabled
        self.max_repair_attempts = max_repair_attempts
        self.repair_deadline_factor = repair_deadline_factor
        self.collect_percentiles = collect_percentiles
        self.simulator = Simulator()
        self.network = LatencyNetwork(
            session=session,
            simulator=self.simulator,
            rng=rng.spawn("network"),
            jitter_ms=jitter_ms,
            loss_probability=loss_probability,
            duplicate_probability=duplicate_probability,
        )
        # The report's table, a row per (stream, site) opened at its
        # first arrival, and each row's received sequences.
        self._table = DeliveryTable([], [], [], [], [])
        self._rows: dict[tuple[StreamId, int], int] = {}
        self._received: list[set[int]] = []
        self._bytes_sent = {site.index: 0 for site in session.sites}
        self._captured = 0
        # The forest's maps, read once per run.
        self._children: dict[StreamId, dict[int, list[int]]] = {}
        self._parents: dict[StreamId, dict[int, int]] = {}
        # NACK/repair state: per-(stream, site) frame buffers and highest
        # sequence, and the in-flight repairs keyed by instance.
        self._buffers: dict[tuple[StreamId, int], dict[int, Frame3D]] = {}
        self._highest: dict[tuple[StreamId, int], int] = {}
        self._pending: dict[tuple[StreamId, int, int], _PendingRepair] = {}
        self._latencies: list[float] = []
        self.duplicates_discarded = 0
        self.nacks_sent = 0
        self.repairs_sent = 0
        self.frames_recovered = 0
        self.frames_unrecovered = 0

    def run(self, duration_ms: float = 2000.0) -> DataPlaneReport:
        """Simulate ``duration_ms`` of capture and dissemination."""
        for stream_id, tree in self.forest.trees.items():
            parent_of = self._parents[stream_id] = tree.parent_map()
            self._children[stream_id] = tree.children_map()
            _check_hops(self.session, parent_of.values(), parent_of)
        for _tree, clock, camera_rng in self._cameras(duration_ms):
            CameraSource(
                clock=clock, rng=camera_rng, on_frame=self._on_capture,
                end_time_ms=duration_ms,
            ).start(self.simulator.schedule_at)
        if self.nack_enabled:
            # Sweep for undetectable tail losses once every original
            # delivery has had time to land (path costs stay below the
            # bound; the factor absorbs accumulated jitter).
            self.simulator.schedule_at(
                duration_ms + self.repair_deadline_factor * self.latency_bound_ms,
                self._tail_audit,
            )
        # Drain fully: frames captured near the end still need to land,
        # and every pending repair resolves (recovered or given up).
        self.simulator.run()
        return DataPlaneReport(
            duration_ms=duration_ms,
            frames_captured=self._captured,
            frames_delivered=sum(self._table.frames),
            deliveries=self._table,
            bytes_sent_by_site=dict(self._bytes_sent),
            latency_bound_ms=self.latency_bound_ms,
            sends_dropped=self.network.dropped,
            duplicates_discarded=self.duplicates_discarded,
            nacks_sent=self.nacks_sent,
            repairs_sent=self.repairs_sent,
            frames_recovered=self.frames_recovered,
            frames_unrecovered=self.frames_unrecovered,
            # Empty, and so ``{}``, unless percentiles were collected.
            latency_percentiles=latency_percentiles(self._latencies),
        )

    # -- internals ---------------------------------------------------------------

    def _on_capture(self, frame: Frame3D) -> None:
        self._captured += 1
        if self.nack_enabled:
            source = (frame.stream_id, frame.stream_id.site)
            self._buffers.setdefault(source, {})[frame.sequence] = frame
        self._relay(frame.stream_id.site, frame)

    def _relay(self, at_site: int, frame: Frame3D) -> None:
        """Forward ``frame`` to the site's children in the stream's tree."""
        children = self._children[frame.stream_id].get(at_site)
        if not children:
            return
        self._bytes_sent[at_site] += frame.size_bytes * len(children)
        send, arrive = self.network.send, self._on_arrival
        for child in children:
            send(at_site, child, arrive, child, frame)

    def _on_arrival(self, at_site: int, frame: Frame3D) -> None:
        key = (frame.stream_id, at_site)
        table = self._table
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = len(table)
            table.streams.append(frame.stream_id)
            table.nodes.append(at_site)
            table.frames.append(0)
            table.totals.append(0.0)
            table.maxima.append(0.0)
            self._received.append(set())
        seen = self._received[row]
        if frame.sequence in seen:
            # Network duplication, or a repair overlapping the cascade
            # (the subtree relay re-delivers to receivers that already
            # hold the frame).  Discard without re-recording/re-relaying.
            self.duplicates_discarded += 1
            return
        seen.add(frame.sequence)
        if self.nack_enabled:
            self._buffers.setdefault(key, {})[frame.sequence] = frame
            if self._pending.pop((*key, frame.sequence), None) is not None:
                self.frames_recovered += 1
            self._detect_gaps(key, frame.sequence, seen)
        # One delivery, accumulated from 0.0 left to right in arrival
        # order: the order the analytic kernels reproduce.
        latency = self.simulator.now - frame.capture_time_ms
        table.frames[row] += 1
        table.totals[row] += latency
        if latency > table.maxima[row]:
            table.maxima[row] = latency
        if self.collect_percentiles:
            self._latencies.append(latency)
        self._relay(at_site, frame)

    # -- NACK/repair state machine -------------------------------------------
    #
    # Each open repair has one retry call in flight.  It closes when its
    # frame arrives (a received key never reopens: the site buffers the
    # frame) or when that retry gives up; a retry finding no entry is stale.

    def _detect_gaps(
        self, key: tuple[StreamId, int], sequence: int, received: set[int]
    ) -> None:
        """Start repairs for sequences skipped below ``sequence``."""
        highest = self._highest.get(key, -1)
        if sequence > highest:
            for missing in range(highest + 1, sequence):
                if missing not in received:
                    self._start_repair(*key, missing)
            self._highest[key] = sequence

    def _start_repair(self, stream_id: StreamId, site: int, sequence: int) -> None:
        """Open a repair for one missing instance (no-op if in flight).

        The repair deadline runs from *detection* (now), not capture:
        a tail-audit detection long after capture still gets its full
        ``repair_deadline_factor * latency_bound_ms`` window.
        """
        pending_key = (stream_id, site, sequence)
        if pending_key in self._pending:
            return
        if site not in self._parents[stream_id]:
            raise SimulationError(
                f"source site {site} missing its own frame "
                f"{stream_id}#{sequence}"
            )
        deadline = (
            self.simulator.now
            + self.repair_deadline_factor * self.latency_bound_ms
        )
        pending = _PendingRepair(attempts=0, deadline_ms=deadline)
        self._pending[pending_key] = pending
        self._send_nack(stream_id, site, sequence, pending)

    def _send_nack(
        self, stream_id: StreamId, site: int, sequence: int, pending: _PendingRepair
    ) -> None:
        parent = self._parents[stream_id][site]
        pending.attempts += 1
        self.nacks_sent += 1
        self.network.send(
            site, parent, self._on_nack, parent, stream_id, sequence, site
        )
        self.simulator.schedule_in(
            self._nack_retry_ms(parent, site),
            self._retry_repair, stream_id, site, sequence,
        )

    def _nack_retry_ms(self, parent: int, site: int) -> float:
        # One NACK/repair round trip plus worst-case jitter both ways,
        # floored so zero-cost links still get a positive timeout.
        rtt = 2.0 * (self.session.cost_ms(parent, site) + self.network.jitter_ms)
        return max(rtt, 1.0)

    def _retry_repair(self, stream_id: StreamId, site: int, sequence: int) -> None:
        pending_key = (stream_id, site, sequence)
        pending = self._pending.get(pending_key)
        if pending is None:
            return  # repaired before the retry came due
        if (
            pending.attempts >= self.max_repair_attempts
            or self.simulator.now > pending.deadline_ms
        ):
            del self._pending[pending_key]
            self.frames_unrecovered += 1
            return
        self._send_nack(stream_id, site, sequence, pending)

    def _on_nack(
        self, at_site: int, stream_id: StreamId, sequence: int, requester: int
    ) -> None:
        frame = self._buffers.get((stream_id, at_site), {}).get(sequence)
        if frame is not None:
            self.repairs_sent += 1
            self._bytes_sent[at_site] += frame.size_bytes
            self.network.send(at_site, requester, self._on_arrival, requester, frame)
            return
        # This site lost its copy too (possibly still undetected):
        # escalate a repair of its own.  When the repaired frame lands
        # here it relays to every child, so the requester is served by
        # the cascade.
        self._start_repair(stream_id, at_site, sequence)

    def _tail_audit(self) -> None:
        """Sweep for losses no later frame could reveal.

        A frame dropped after the stream's last delivered sequence
        leaves no gap at the receiver, and a receiver that lost *every*
        frame never sees one; walk the captured sequences (the source
        buffer) against each receiver's received set and open repairs
        for anything still missing.
        """
        for stream_id, tree in self.forest.trees.items():
            expected = self._buffers.get((stream_id, tree.source))
            if not expected:
                continue
            for site in tree.receivers():
                row = self._rows.get((stream_id, site))
                seen = self._received[row] if row is not None else ()
                for sequence in expected:
                    if sequence not in seen:
                        self._start_repair(stream_id, site, sequence)


class FastDataPlane(_Plane):
    """Analytic batched data plane for deterministic (zero jitter/loss) runs.

    Exploits the determinism the event-driven plane only discovers the
    hard way: with no jitter and no loss, every frame captured at ``t0``
    arrives at member ``v`` at exactly ``t0 + sum(hop costs on the
    source->v tree path)``, accumulated hop by hop in IEEE-754 — the
    same float recurrence the simulator's clock performs.  One pass of
    (members x frames) float adds over the whole forest therefore
    reproduces the event-driven :class:`DataPlaneReport` bit for bit,
    with no heap, no callbacks, and no per-frame object construction.

    Raises :class:`~repro.errors.SimulationError` when constructed with
    jitter or loss — those runs need the event-driven plane (use
    :func:`make_dataplane` to dispatch automatically).
    """

    #: Dispatch tag (see :func:`make_dataplane`).
    kind = "fast"

    def __init__(
        self,
        session: TISession,
        forest: OverlayForest,
        rng: RngStream,
        fps: float = 15.0,
        jitter_ms: float = 0.0,
        loss_probability: float = 0.0,
        latency_bound_ms: float = 120.0,
    ) -> None:
        if jitter_ms != 0.0 or loss_probability != 0.0:
            raise SimulationError(
                "FastDataPlane is exact only for zero jitter/loss; "
                f"got jitter_ms={jitter_ms}, loss={loss_probability} "
                "(use make_dataplane() to dispatch)"
            )
        super().__init__(session, forest, rng, fps, latency_bound_ms)

    def run(self, duration_ms: float = 2000.0) -> DataPlaneReport:
        """Compute ``duration_ms`` of capture and dissemination analytically."""
        return _disseminate(self, duration_ms)


class SampledDataPlane(_Plane):
    """Sampled-percentile noisy plane: bulk draws convolved along paths.

    The event-driven plane is the oracle for noisy runs but pays a heap
    event per hop per frame.  This plane exploits the same structure the
    :class:`FastDataPlane` does — a frame's delivery time at node ``v``
    is the source capture time plus the per-hop terms along the tree
    path — except the per-hop terms are now random: arrivals accumulate
    ``hop_cost + Uniform(0, jitter)`` down the tree, and a survival mask
    ANDs per-hop ``Uniform(0, 1) >= loss`` draws so a frame dropped at a
    hop is dead for the whole subtree below it (exactly the event
    plane's loss correlation).

    All randomness comes from the :class:`~repro.util.rng.RngStream`
    (never backend-native RNG), so reports are bit-identical across
    array backends; the backend kernel only vectorizes the arithmetic.
    The draws are *differently ordered* than the event plane's, so
    noisy reports agree with the oracle in distribution — percentiles
    within tolerance, pinned by test — not bit-for-bit.  At zero noise
    the report is the fast plane's, plus the percentiles.

    Duplication and NACK/repair are not modelled here — those runs need
    the event plane (:func:`make_dataplane` enforces this).
    """

    #: Dispatch tag (see :func:`make_dataplane`).
    kind = "sampled"

    def __init__(
        self,
        session: TISession,
        forest: OverlayForest,
        rng: RngStream,
        fps: float = 15.0,
        jitter_ms: float = 0.0,
        loss_probability: float = 0.0,
        latency_bound_ms: float = 120.0,
    ) -> None:
        super().__init__(session, forest, rng, fps, latency_bound_ms)
        self.jitter_ms = check_finite_non_negative("jitter_ms", jitter_ms)
        self.loss_probability = check_probability("loss_probability", loss_probability)

    def run(self, duration_ms: float = 2000.0) -> DataPlaneReport:
        """Sample ``duration_ms`` of noisy capture and dissemination."""
        return _disseminate(
            self, duration_ms, self.jitter_ms, self.loss_probability, percentiles=True
        )


def _disseminate(
    plane: _Plane, duration_ms: float, jitter=0.0, loss=0.0, percentiles=False
) -> DataPlaneReport:
    """The analytic run of a whole forest: every (receiver x frame) at once.

    :func:`_batches` lays the receivers out as rows and
    ``ArrayBackend.disseminate`` moves the capture schedule down all
    trees together.  Per-hop noise is drawn in row order from the
    plane's ``network`` stream: a receiver's loss draws for all frames,
    then its jitter draws (``LatencyNetwork.send``'s order for one).
    """
    session = plane.session
    backend = session.array_backend
    trees, times, sizes = _captures(plane, duration_ms)
    n_frames = len(times)
    draws_per_row = n_frames * ((loss > 0.0) + (jitter > 0.0))
    noise_rng = plane.rng.spawn("network") if draws_per_row else None
    table = DeliveryTable([], [], [], [], [])
    bytes_sent: dict[int, int] = {site.index: 0 for site in session.sites}
    latencies: list[float] = []
    batches = _batches(session, trees, n_frames)
    for streams, nodes, parents, parent_rows, hops, tree_rows in batches:
        noise = noise_rng and backend.unit_floats(
            noise_rng.random_words(draws_per_row * len(nodes))
        )
        frames, totals, maxima, sent, batch_latencies = backend.disseminate(
            times, parent_rows, hops, tree_rows, sizes, loss, jitter, noise, percentiles
        )
        table.streams += streams
        table.nodes += nodes
        table.frames += frames
        table.totals += totals
        table.maxima += maxima
        for parent, size in zip(parents, sent):
            bytes_sent[parent] += size
        latencies += batch_latencies
    delivered = sum(table.frames)
    return DataPlaneReport(
        duration_ms=duration_ms,
        frames_captured=n_frames * len(trees),
        frames_delivered=delivered,
        deliveries=table,
        bytes_sent_by_site=bytes_sent,
        latency_bound_ms=plane.latency_bound_ms,
        sends_dropped=n_frames * len(table) - delivered,
        latency_percentiles=latency_percentiles(latencies),
    )


def _captures(plane: _Plane, duration_ms: float):
    """``(trees, times, sizes)`` of a run's cameras: the trees somebody
    receives, the one capture schedule their shared fps gives them, and
    a row of frame sizes each.

    Each camera's seeded stream is drawn from and dropped before the
    next is made: held together through the run, the benchmark forest's
    106 cost one more full garbage collection every 200 calls.
    """
    trees, clocks, words, times = [], [], [], []
    for tree, clock, camera_rng in plane._cameras(duration_ms):
        if not trees:
            times = clock.capture_times(duration_ms)
        trees.append(tree)
        clocks.append(clock)
        words.append(camera_rng.random_words(len(times)))
    if not trees:
        return trees, times, None
    backend = plane.session.array_backend
    return trees, times, batched_sizes(clocks, b"".join(words), backend)


def _batches(session: TISession, trees, n_frames: int):
    """The trees' receivers as kernel rows, a batch of whole trees at a time.

    Rows run tree-major in attach order, so a parent always precedes
    its children.  Yields the columns ``(streams, nodes, parents,
    parent_rows, hops, tree_rows)``: the tree's stream, the receiver,
    its parent site, the parent's row in the batch (``-1`` under the
    source), hop cost from the session's dense matrix, index in
    ``trees``.  A batch closes at the first tree that takes it past
    2**15 (receiver x frame) cells — 256 KiB a float matrix — which
    bounds the kernel's transients for any forest and horizon (2**16
    already reads +3 MB of peak RSS).
    """
    cost_rows = session.dense_cost_matrix().rows()
    streams, nodes, parents, parent_rows, tree_rows = [], [], [], [], []
    for tree_row, tree in enumerate(trees):
        parent_of = tree.parent_map()
        # The source has no row: its children take the default.
        row_of = dict(zip(parent_of, range(len(nodes), len(nodes) + len(parent_of))))
        streams += [tree.stream] * len(parent_of)
        nodes += parent_of
        parents += parent_of.values()
        parent_rows += [row_of.get(parent, -1) for parent in parent_of.values()]
        tree_rows += [tree_row] * len(parent_of)
        if len(nodes) * n_frames < 1 << 15 and tree_row + 1 < len(trees):
            continue
        _check_hops(session, parents, nodes)
        hops = [cost_rows[parent][node] for parent, node in zip(parents, nodes)]
        yield streams, nodes, parents, parent_rows, hops, tree_rows
        streams, nodes, parents, parent_rows, tree_rows = [], [], [], [], []


def _check_hops(session: TISession, parents, nodes) -> None:
    """Raise the session's error for the first hop that leaves the session,
    before anything indexes the dense matrix (a negative site would wrap)."""
    sites = [*parents, *nodes]
    if sites and (min(sites) < 0 or max(sites) >= len(session.sites)):
        for parent, node in zip(parents, nodes):
            session.cost_ms(parent, node)  # raises, naming the first bad hop


#: Accepted values for :func:`make_dataplane`'s ``plane`` knob.
PLANE_NAMES = ("auto", "fast", "event", "sampled")


def make_dataplane(
    session: TISession,
    forest: OverlayForest,
    rng: RngStream,
    fps: float = 15.0,
    jitter_ms: float = 0.0,
    loss_probability: float = 0.0,
    duplicate_probability: float = 0.0,
    latency_bound_ms: float = 120.0,
    nack_enabled: bool = False,
    max_repair_attempts: int = 3,
    repair_deadline_factor: float = 2.0,
    plane: str = "auto",
) -> "FastDataPlane | ForestDataPlane | SampledDataPlane":
    """Pick the right data plane for the run's noise model.

    Deterministic runs (zero jitter, loss *and* duplication — the
    paper's evaluation setting) get the analytic :class:`FastDataPlane`;
    any stochastic perturbation routes to the event-driven
    :class:`ForestDataPlane`, which also carries the NACK/repair layer.
    Both produce identical reports on the deterministic setting, so
    callers never need to care which they got (check ``plane.kind``
    when they do).  ``plane="sampled"`` opts a noisy run into the
    :class:`SampledDataPlane` instead — percentile-accurate against the
    event oracle, but with no duplication or repair model, so it
    refuses those knobs.
    """
    if plane not in PLANE_NAMES:
        raise SimulationError(
            f"unknown data plane {plane!r}; expected one of {PLANE_NAMES}"
        )
    # What all three constructors take; the event plane takes the rest.
    shared = dict(
        session=session, forest=forest, rng=rng, fps=fps, jitter_ms=jitter_ms,
        loss_probability=loss_probability, latency_bound_ms=latency_bound_ms,
    )
    if plane == "sampled":
        if duplicate_probability != 0.0 or nack_enabled:
            raise SimulationError(
                "the sampled plane models neither duplication nor "
                "NACK/repair; use plane='event' (or 'auto')"
            )
        return SampledDataPlane(**shared)
    deterministic = jitter_ms == loss_probability == duplicate_probability == 0.0
    if plane == "fast" or (plane == "auto" and deterministic):
        if duplicate_probability != 0.0:
            raise SimulationError(
                "FastDataPlane is exact only for zero duplication; "
                f"got duplicate_probability={duplicate_probability}"
            )
        return FastDataPlane(**shared)
    return ForestDataPlane(
        duplicate_probability=duplicate_probability,
        nack_enabled=nack_enabled,
        max_repair_attempts=max_repair_attempts,
        repair_deadline_factor=repair_deadline_factor,
        **shared,
    )
