"""Span tracer for the traced benchmark pass.

No span lives inside ``src/``: the tracer wraps the layers' public
callables where their callers look them up (class attributes, and module
globals for the functions a module imported by name), records one span
per call in memory, and puts every original back on exit.  A span is
``(span, parent, round, name, start, end)``; a layer's *self time* is its
spans' duration minus the part their child spans cover, so the self times
under one root add up to the root's duration.

A target that no longer exists is skipped and counted in ``missing`` — a
refactor zeroes that layer's metrics instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

#: (span name, module, class or None, attribute).  Names follow the repo's
#: modules; several callables may share one name (one layer entry point
#: seen from several callers, or a family such as the four report kinds).
TARGETS = (
    ("topology.load_backbone", "repro.topology.backbone", None, "load_backbone"),
    ("topology.load_backbone", "repro.scenarios.runtime", None, "load_backbone"),
    ("session.build_session", "repro.session.session", None, "build_session"),
    ("session.build_session", "repro.scenarios.runtime", None, "build_session"),
    ("scenarios.runtime.init", "repro.scenarios.runtime", "ScenarioRuntime", "__init__"),
    ("scenarios.runtime.run", "repro.scenarios.runtime", "ScenarioRuntime", "run"),
    # The two synchronous round drivers open a new round id.  The
    # runtime's is private; it is the only private name touched, and only
    # so that a round of the sync runtime has a root span.
    ("round", "repro.scenarios.runtime", "ScenarioRuntime", "_control_round"),
    ("round", "repro.pubsub.system", "PubSubSystem", "run_control_round"),
    ("pubsub.rp.advertisement", "repro.pubsub.rp", "RPAgent", "advertisement"),
    ("pubsub.rp.aggregate_subscription", "repro.pubsub.rp", "RPAgent", "aggregate_subscription"),
    ("pubsub.rp.submit_display_subscription", "repro.pubsub.rp", "RPAgent", "submit_display_subscription"),
    ("pubsub.rp.apply_directive", "repro.pubsub.rp", "RPAgent", "apply_directive"),
    ("pubsub.membership.register", "repro.pubsub.membership", "MembershipServer", "register_advertisement"),
    ("pubsub.membership.register", "repro.pubsub.membership", "MembershipServer", "register_subscription"),
    ("pubsub.membership.withdraw_site", "repro.pubsub.membership", "MembershipServer", "withdraw_site"),
    ("pubsub.membership.build_overlay", "repro.pubsub.membership", "MembershipServer", "build_overlay"),
    ("pubsub.membership.checkpoint", "repro.pubsub.membership", "MembershipServer", "checkpoint"),
    ("pubsub.membership.restore", "repro.pubsub.membership", "MembershipServer", "restore"),
    ("core.problem.evolve", "repro.core.problem", "ForestProblem", "evolve"),
    ("core.problem.evolve", "repro.core.problem", "ForestProblem", "evolve_delta"),
    ("core.problem.from_workload", "repro.core.problem", "ForestProblem", "from_workload"),
    ("core.build", "repro.core.base", "OverlayBuilder", "build"),
    # co-rj's override calls the base build and then sweeps for victim
    # swaps, so this span's self time is the sweeps alone.
    ("core.corj_sweeps", "repro.core.correlation", "CorrelatedRandomJoinBuilder", "build"),
    ("core.backend.parent_scan", "repro.core.backend", "NumpyBackend", "parent_scan"),
    ("core.incremental.repair", "repro.core.incremental", "IncrementalRepairer", "repair"),
    ("core.incremental.churn_rate", "repro.pubsub.membership", None, "churn_rate"),
    ("sim.invariants.audit_round", "repro.sim.invariants", "InvariantAuditor", "audit_round"),
    ("sim.engine.run", "repro.sim.engine", "Simulator", "run"),
    ("pubsub.service.report", "repro.pubsub.service", "MembershipService", "advertise"),
    ("pubsub.service.report", "repro.pubsub.service", "MembershipService", "subscribe"),
    ("pubsub.service.report", "repro.pubsub.service", "MembershipService", "withdraw"),
    ("pubsub.service.report", "repro.pubsub.service", "MembershipService", "fail_site"),
    ("pubsub.service.crash_recover", "repro.pubsub.service", "MembershipService", "crash_server"),
    ("pubsub.service.crash_recover", "repro.pubsub.service", "MembershipService", "recover_server"),
    ("pubsub.faults.transmit", "repro.pubsub.faults", "FaultyLink", "transmit"),
    ("pubsub.detector.observe", "repro.pubsub.detector", "PhiAccrualDetector", "observe"),
    ("pubsub.detector.suspect", "repro.pubsub.detector", "PhiAccrualDetector", "suspect"),
    ("pubsub.detector.phi", "repro.pubsub.detector", "PhiAccrualDetector", "phi"),
    ("pubsub.detector.touch", "repro.pubsub.detector", "PhiAccrualDetector", "touch"),
    ("pubsub.detector.forget", "repro.pubsub.detector", "PhiAccrualDetector", "forget"),
    ("sim.dataplane.fast.run", "repro.sim.dataplane", "FastDataPlane", "run"),
    ("sim.dataplane.sampled.run", "repro.sim.dataplane", "SampledDataPlane", "run"),
    ("sim.dataplane.event.run", "repro.sim.dataplane", "ForestDataPlane", "run"),
)

#: A ``round`` span opens a new round id and roots the round's spans.  The
#: async plane has no round driver, so outside a ``round`` span every build
#: opens the round that its directive pushes and acks then belong to.
ROUND_ROOT = "round"
ASYNC_ROUND_OPENER = "pubsub.membership.build_overlay"


def resolve_targets():
    """Yield ``(name, owner, attribute)``; ``owner`` is None when missing."""
    for name, module_name, class_name, attribute in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            if attribute not in vars(owner):
                owner = None
        except (ImportError, AttributeError):
            owner = None
        yield name, owner, attribute


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # Parallel columns, one entry per span, in opening order.
        self.name_of = array("i")
        self.parent_of = array("i")
        self.round_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.round_id = 0
        #: Requests incremental repairs had to (re-)join, and the request
        #: volume of those rounds (the repairer's touched fraction).
        self.repair_touched = 0
        self.repair_requests = 0
        self.missing = 0
        self._roots_open = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installing and restoring -------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, owner, attribute in resolve_targets():
            if owner is None:
                self.missing += 1
                continue
            original = vars(owner)[attribute]
            kind = type(original)
            if kind in (classmethod, staticmethod):
                replacement = kind(self._traced(name, original.__func__))
            else:
                replacement = self._traced(name, original)
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _traced(self, name: str, function):
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        is_root = name == ROUND_ROOT
        is_build = name == ASYNC_ROUND_OPENER
        counts_touched = name == "core.incremental.repair"
        name_of, parent_of, round_of = self.name_of, self.parent_of, self.round_of
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if is_root:
                self.round_id += 1
                self._roots_open += 1
            elif is_build and not self._roots_open:
                self.round_id += 1
            span = len(start)
            name_of.append(index)
            parent_of.append(stack[-1] if stack else -1)
            round_of.append(self.round_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            start[span] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
                if is_root:
                    self._roots_open -= 1
            if counts_touched:
                self.repair_touched += result.touched
                self.repair_requests += result.result.total_requests
            return result

        return traced

    # -- reading the trace ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        own = [self.end[i] - self.start[i] for i in range(len(self.start))]
        for i, parent in enumerate(self.parent_of):
            if parent >= 0:
                own[parent] -= self.end[i] - self.start[i]
        return own

    def layers(self, own: list[float]) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time and inclusive time in ms.

        ``own`` is :meth:`self_times`, computed once by the caller.
        """
        table = {
            name: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
            for name in self.names
        }
        for i, index in enumerate(self.name_of):
            row = table[self.names[index]]
            row["calls"] += 1
            row["self_ms"] += own[i] * 1000.0
            row["total_ms"] += (self.end[i] - self.start[i]) * 1000.0
        return table

    def round_balance(self, own: list[float]) -> dict[str, float]:
        """How the spans of each synchronous round add up to its root.

        ``worst_error`` is the largest relative gap between a round
        root's duration and the summed self times of its subtree (zero up
        to float rounding when the bookkeeping is right);
        ``attributed_ratio`` is the share of all round time that landed
        in a layer span rather than in the round driver's own loop.
        """
        root_index = self._name_index.get(ROUND_ROOT)
        root_of = [-1] * len(own)
        subtree: dict[int, float] = {}
        for i, parent in enumerate(self.parent_of):
            if self.name_of[i] == root_index:
                root_of[i] = i
            elif parent >= 0:
                root_of[i] = root_of[parent]
            if root_of[i] >= 0:
                subtree[root_of[i]] = subtree.get(root_of[i], 0.0) + own[i]
        worst = 0.0
        total = driver = 0.0
        for root, summed in subtree.items():
            duration = self.end[root] - self.start[root]
            if duration > 0:
                worst = max(worst, abs(summed - duration) / duration)
            total += duration
            driver += own[root]
        return {
            "worst_error": worst,
            "attributed_ratio": (total - driver) / total if total else 0.0,
        }

    def write_jsonl(self, path) -> None:
        """One span per line, in opening order."""
        with open(path, "w", encoding="utf-8") as out:
            for i, index in enumerate(self.name_of):
                out.write(
                    json.dumps(
                        {
                            "span": i,
                            "parent": self.parent_of[i],
                            "round": self.round_of[i],
                            "name": self.names[index],
                            "start": self.start[i],
                            "end": self.end[i],
                        }
                    )
                    + "\n"
                )
