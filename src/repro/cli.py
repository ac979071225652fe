"""Command-line front-end: ``tele3d <figure> [options]``.

Regenerates the paper's figures as ASCII tables and terminal plots, e.g.::

    tele3d fig8 --workload zipf --nodes heterogeneous --samples 50
    tele3d fig9
    tele3d fig10
    tele3d fig11
    tele3d all --samples 200
    tele3d demo

and runs audited stress scenarios against the control plane::

    tele3d scenario list
    tele3d scenario run flash-crowd --sites 8 --audit --dataplane
    tele3d scenario run mixed-churn --rebuild-policy incremental
    tele3d scenario run flash-crowd --async-control --control-delay-ms 50
    tele3d scenario run lossy-flash-crowd --sites 8 --strict
    tele3d scenario run flash-crowd --loss-rate 0.2 --jitter-ms 8 \\
        --retransmit-timeout-ms 60 --heartbeat-ms 40 --max-unrecovered 0
    tele3d scenario run lossy-dissemination --sites 8 --strict \\
        --max-unrecovered-frames 0
    tele3d scenario run flash-crowd --data-loss-rate 0.2 --data-jitter-ms 5 \\
        --data-nack --max-unrecovered-frames 0
    tele3d disruption --scenario mixed-churn --sizes 8,16,32
    tele3d convergence --scenario flash-crowd --delays 0,20,50,100

Any figure command accepts ``--audit`` to re-derive every structural
invariant of every constructed overlay (fails loudly on violation).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

from repro.errors import Tele3DError
from repro.util.validation import REBUILD_POLICIES
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import improvement_factor, run_fig11
from repro.experiments.report import series_plot, series_table
from repro.experiments.settings import ExperimentSetting


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=200,
                        help="workload samples per point (paper: 200)")
    parser.add_argument("--seed", type=int, default=42, help="root RNG seed")
    parser.add_argument("--backbone", default="tier1",
                        help="embedded backbone dataset (abilene | tier1)")
    parser.add_argument("--no-plot", action="store_true",
                        help="print tables only, skip ASCII plots")
    parser.add_argument("--audit", action="store_true",
                        help="audit every constructed overlay's invariants")


def _parse_window(flag: str, shape: str, text: str):
    """Parse one colon-separated window argument of ``flag``.

    ``SITE:START:END`` is a site partition, ``START:END`` a server outage.
    """
    from repro.pubsub.faults import PartitionWindow, ServerOutageWindow

    parts = text.split(":")
    if len(parts) != shape.count(":") + 1:
        print(f"tele3d: error: {flag} expects {shape}, got {text!r}",
              file=sys.stderr)
        raise SystemExit(2)
    try:
        *site, start_ms, end_ms = parts
        if site:
            return PartitionWindow(int(site[0]), float(start_ms), float(end_ms))
        return ServerOutageWindow(float(start_ms), float(end_ms))
    except ValueError:
        print(f"tele3d: error: {flag} expects {shape} numbers, got {text!r}",
              file=sys.stderr)
        raise SystemExit(2) from None
    except Tele3DError as error:
        print(f"tele3d: error: {flag} {text!r}: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _parse_list(parse: Callable, text: str) -> tuple:
    """A comma-separated ``type=`` list; an empty or unparsable item exits 2."""
    try:
        return tuple(parse(item) for item in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated {parse.__name__} values, got {text!r}"
        ) from None


_parse_partition = partial(_parse_window, "--partition", "SITE:START:END")
_parse_outage = partial(_parse_window, "--server-outage", "START:END")


class _SpecFlag(NamedTuple):
    """One ``scenario run`` flag overriding one ScenarioSpec field.

    ``parse`` is ``float``/``int`` for a value, ``bool`` for a switch, or
    (with ``metavar``) a window parser for a repeatable flag.
    """

    flag: str
    field: str
    parse: Callable
    implies_async: bool
    help: str
    metavar: str | None = None


_SPEC_FLAGS = (
    _SpecFlag("--control-delay-ms", "control_delay_ms", float, True,
              "one-way control-link propagation delay (implies "
              "--async-control; default 0)"),
    _SpecFlag("--debounce-ms", "debounce_ms", float, True,
              "dirty-state window the service coalesces before each build "
              "round (implies --async-control; default 0)"),
    _SpecFlag("--loss-rate", "loss_rate", float, True,
              "control-link drop probability per message (implies "
              "--async-control; default 0)"),
    _SpecFlag("--jitter-ms", "jitter_ms", float, True,
              "uniform [0,j] control-link delay jitter (implies "
              "--async-control; default 0)"),
    _SpecFlag("--duplicate-rate", "duplicate_rate", float, True,
              "probability a delivered control message is delivered again "
              "(implies --async-control)"),
    _SpecFlag("--partition", "partitions", _parse_partition, True,
              "cut one site's control link for [START,END) ms (repeatable; "
              "implies --async-control)", "SITE:START:END"),
    _SpecFlag("--heartbeat-ms", "heartbeat_ms", float, True,
              "site heartbeat period; the server withdraws sites silent for "
              "miss-threshold periods (implies --async-control; 0 disables)"),
    _SpecFlag("--miss-threshold", "miss_threshold", int, True,
              "missed heartbeat periods before the failure detector "
              "withdraws a site (default 3)"),
    _SpecFlag("--retransmit-timeout-ms", "retransmit_timeout_ms", float, True,
              "ack timeout arming retransmission with capped exponential "
              "backoff (implies --async-control; 0 keeps fire-and-forget)"),
    _SpecFlag("--server-outage", "server_outages", _parse_outage, True,
              "crash the membership server for [START,END) ms — it restarts "
              "under a higher incarnation and reconstructs soft state from "
              "the sites (repeatable; implies --async-control; requires "
              "heartbeats + retransmission)", "START:END"),
    _SpecFlag("--phi-threshold", "phi_threshold", float, True,
              "phi-accrual suspicion threshold replacing the static "
              "miss-threshold deadline on both failure detectors (implies "
              "--async-control; 0 keeps the static deadline)"),
    _SpecFlag("--checkpoint-interval-ms", "checkpoint_interval_ms", float, True,
              "period of the server's durable soft-state checkpoint for warm "
              "restarts (implies --async-control; 0 restarts cold)"),
    # Data-plane chaos lives on its own simulator, so these do NOT imply
    # --async-control.
    _SpecFlag("--data-loss-rate", "data_loss_rate", float, False,
              "data-plane frame drop probability per hop (routes "
              "dissemination to the event plane; does not imply "
              "--async-control)"),
    _SpecFlag("--data-jitter-ms", "data_jitter_ms", float, False,
              "uniform [0,j] per-hop data-plane delay jitter"),
    _SpecFlag("--data-duplicate-rate", "data_duplicate_rate", float, False,
              "probability a delivered frame is delivered again (receivers "
              "de-duplicate by sequence)"),
    _SpecFlag("--data-nack", "data_nack", bool, False,
              "arm the NACK/repair layer: receivers detect sequence gaps and "
              "request retransmission up their dissemination tree"),
    _SpecFlag("--data-max-repair-attempts", "data_max_repair_attempts", int,
              False, "NACK retries per missing frame before giving up "
              "(default 3)"),
    _SpecFlag("--data-repair-deadline-factor", "data_repair_deadline_factor",
              float, False, "repair deadline as a multiple of the latency "
              "bound, measured from gap detection (default 2.0)"),
)


def build_parser() -> argparse.ArgumentParser:
    """The tele3d argument parser."""
    parser = argparse.ArgumentParser(
        prog="tele3d",
        description="Reproduce the figures of Wu et al., ICDCS 2008.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p8 = sub.add_parser("fig8", help="rejection ratio vs N (one panel)")
    p8.add_argument("--workload", choices=("zipf", "random"), default="random")
    p8.add_argument("--nodes", choices=("uniform", "heterogeneous"),
                    default="uniform")
    _add_common(p8)

    p9 = sub.add_parser("fig9", help="granularity analysis")
    _add_common(p9)

    p10 = sub.add_parser("fig10", help="out-degree utilization")
    _add_common(p10)

    p11 = sub.add_parser("fig11", help="RJ vs CO-RJ with correlation")
    _add_common(p11)

    pall = sub.add_parser("all", help="every figure, all panels")
    _add_common(pall)

    pdemo = sub.add_parser("demo", help="one end-to-end pub-sub round")
    pdemo.add_argument("--sites", type=int, default=5)
    pdemo.add_argument("--seed", type=int, default=7)

    pscore = sub.add_parser(
        "scorecard", help="evaluate every reproduction shape-claim"
    )
    pscore.add_argument("--samples", type=int, default=30)
    pscore.add_argument("--seed", type=int, default=42)

    pscen = sub.add_parser(
        "scenario", help="run audited stress scenarios on the control plane"
    )
    scen_sub = pscen.add_subparsers(dest="scenario_command", required=True)
    scen_run = scen_sub.add_parser("run", help="execute one named scenario")
    scen_run.add_argument("name", help="scenario name (see 'scenario list')")
    scen_run.add_argument("--sites", type=int, default=8,
                          help="site-pool size (default 8)")
    scen_run.add_argument("--seed", type=int, default=7, help="root RNG seed")
    scen_run.add_argument("--algorithm", default=None,
                          help="override the overlay builder (ltf|stf|mctf|"
                               "rj|co-rj|gran-ltf)")
    audit_group = scen_run.add_mutually_exclusive_group()
    audit_group.add_argument("--audit", dest="audit", action="store_true",
                             default=True,
                             help="audit invariants each round (default)")
    audit_group.add_argument("--no-audit", dest="audit", action="store_false",
                             help="skip invariant auditing")
    scen_run.add_argument("--strict", action="store_true",
                          help="abort on the first invariant violation")
    scen_run.add_argument("--dataplane", action="store_true",
                          help="measure frame dissemination (fast plane) "
                               "after every control round")
    scen_run.add_argument("--rebuild-policy", default=None,
                          choices=REBUILD_POLICIES,
                          help="overlay maintenance across rounds: re-solve "
                               "from scratch (always), repair the surviving "
                               "forest (incremental), or repair under a "
                               "drift budget (hybrid)")
    scen_run.add_argument("--async-control", action="store_true",
                          help="replay the schedule through the event-driven "
                               "membership service (delayed control links, "
                               "debounced overlapping rounds) instead of one "
                               "synchronous round per event")
    for entry in _SPEC_FLAGS:
        if entry.parse is bool:
            scen_run.add_argument(entry.flag, action="store_true", help=entry.help)
        elif entry.metavar is not None:
            scen_run.add_argument(entry.flag, action="append", default=None,
                                  metavar=entry.metavar, help=entry.help)
        else:
            scen_run.add_argument(entry.flag, type=entry.parse, default=None,
                                  help=entry.help)
    scen_run.add_argument("--max-unrecovered", type=int, default=None,
                          help="fail (exit 1) if more than this many active "
                               "sites end the run unregistered (chaos gate)")
    scen_run.add_argument("--max-unrecovered-reports", type=int, default=None,
                          help="fail (exit 1) if more than this many parked "
                               "reports end the run unreplayed (server-crash "
                               "gate)")
    scen_run.add_argument("--max-unrecovered-frames", type=int, default=None,
                          help="fail (exit 1) if more than this many frame "
                               "instances end the run unrecovered on the "
                               "data plane (data-chaos gate)")
    scen_sub.add_parser("list", help="list the named scenarios")

    pdisr = sub.add_parser(
        "disruption",
        help="sweep per-round disruption of the rebuild policies under churn",
    )
    pdisr.add_argument("--scenario", default="mixed-churn",
                       help="named scenario to replay (see 'scenario list')")
    pdisr.add_argument("--sizes", type=partial(_parse_list, int),
                       default="8,16,32", help="comma-separated site-pool sizes")
    pdisr.add_argument("--seed", type=int, default=7, help="root RNG seed")
    pdisr.add_argument("--audit", action="store_true",
                       help="audit every control round of every run")
    pdisr.add_argument("--no-plot", action="store_true",
                       help="print the table only, skip the ASCII plot")

    pconv = sub.add_parser(
        "convergence",
        help="sweep control-convergence latency vs control-link delay "
             "(event-driven control plane)",
    )
    pconv.add_argument("--scenario", default="flash-crowd",
                       help="named scenario to replay (see 'scenario list')")
    pconv.add_argument("--delays", type=partial(_parse_list, float),
                       default="0,20,50,100",
                       help="comma-separated control_delay_ms values")
    pconv.add_argument("--sites", type=int, default=8,
                       help="site-pool size (default 8)")
    pconv.add_argument("--seed", type=int, default=7, help="root RNG seed")
    pconv.add_argument("--debounce-ms", type=float, default=10.0,
                       help="debounce window at every delay point "
                            "(default 10)")
    pconv.add_argument("--audit", action="store_true",
                       help="audit every installed epoch of every run")
    pconv.add_argument("--no-plot", action="store_true",
                       help="print the table only, skip the ASCII plot")

    return parser


def _setting(args: argparse.Namespace, workload: str, nodes: str) -> ExperimentSetting:
    return ExperimentSetting(
        workload=workload,
        nodes=nodes,
        samples=args.samples,
        seed=args.seed,
        backbone=args.backbone,
        audit=getattr(args, "audit", False),
    )


def _emit(title: str, result, x_name: str, args: argparse.Namespace,
          plot_series: list[str] | None = None) -> None:
    print(series_table(result, x_name, title=title))
    if not args.no_plot:
        print()
        print(series_plot(result, title, include=plot_series))
    print()


def cmd_fig8(args: argparse.Namespace, workload: str | None = None,
             nodes: str | None = None) -> None:
    """Run one Fig. 8 panel."""
    workload = workload or args.workload
    nodes = nodes or args.nodes
    setting = _setting(args, workload, nodes)
    result = run_fig8(setting)
    _emit(
        f"Figure 8 ({workload} workload, {nodes} nodes): "
        "average rejection ratio vs N",
        result, "N", args,
    )


def cmd_fig9(args: argparse.Namespace) -> None:
    """Run the granularity analysis."""
    setting = _setting(args, "random", "uniform")
    result = run_fig9(setting)
    _emit("Figure 9: rejection ratio vs granularity (N=10)", result,
          "granularity", args)


def cmd_fig10(args: argparse.Namespace) -> None:
    """Run the utilization/load-balancing figure."""
    setting = replace(
        _setting(args, "random", "uniform"),
        mean_subscribers=1.4,
        guarantee_coverage=False,
    )
    result = run_fig10(setting)
    _emit("Figure 10: RJ out-degree utilization vs N", result, "N", args,
          plot_series=["out-degree-utilization", "relay-fraction"])


def cmd_fig11(args: argparse.Namespace) -> None:
    """Run the correlation figure."""
    setting = replace(
        _setting(args, "zipf", "heterogeneous"),
        interest=0.18,
        guarantee_coverage=False,
    )
    result = run_fig11(setting)
    _emit("Figure 11: criticality-weighted rejection, RJ vs CO-RJ", result,
          "N", args, plot_series=["rj", "co-rj"])
    n_last = result.xs[-1]
    print(f"CO-RJ improvement at N={n_last}: "
          f"{improvement_factor(result):.2f}x (criticality-loss ratio), "
          f"{improvement_factor(result, suffix='-eq3'):.2f}x (Eq. 3 verbatim)")


def cmd_all(args: argparse.Namespace) -> None:
    """Every figure, every panel."""
    for workload in ("zipf", "random"):
        for nodes in ("heterogeneous", "uniform"):
            start = time.time()
            cmd_fig8(args, workload=workload, nodes=nodes)
            print(f"  [panel took {time.time() - start:.1f}s]\n")
    cmd_fig9(args)
    cmd_fig10(args)
    cmd_fig11(args)


def cmd_demo(args: argparse.Namespace) -> None:
    """One end-to-end pub-sub control round plus a data-plane run."""
    from repro import make_builder, quick_session
    from repro.pubsub.system import PubSubSystem
    from repro.sim.dataplane import make_dataplane
    from repro.util.rng import RngStream
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.uniform import UniformPopularity

    rng = RngStream(args.seed)
    session = quick_session(n_sites=args.sites, rng=rng)
    print(f"session: {session}")
    system = PubSubSystem(session=session, builder=make_builder("rj"))
    generator = WorkloadGenerator(
        session=session, popularity=UniformPopularity()
    )
    workload = generator.generate(rng.spawn("workload"))
    for site in session.sites:
        streams = list(workload.streams_of(site.index))
        for display in site.displays[:1]:
            system.subscribe_display(site.index, display.display_id, streams)
    directive = system.run_control_round(rng.spawn("round"))
    print(f"directive epoch={directive.epoch}, edges={len(directive.edges)}, "
          f"rejected={len(directive.rejected)}")
    result = system.last_result
    plane = make_dataplane(session, result.forest, rng.spawn("dataplane"))
    report = plane.run(duration_ms=1000.0)
    print(f"data plane ({plane.kind}): {report.frames_delivered} deliveries, "
          f"mean latency {report.mean_latency_ms:.1f}ms, "
          f"max {report.max_latency_ms:.1f}ms, "
          f"bound violations {report.bound_violations()}")


def cmd_scorecard(args: argparse.Namespace) -> None:
    """Evaluate and print every reproduction shape-claim."""
    from repro.experiments.scorecard import full_scorecard, render_scorecard

    claims = full_scorecard(samples=args.samples, seed=args.seed)
    print(render_scorecard(claims))


def cmd_scenario(args: argparse.Namespace) -> int:
    """Dispatch ``scenario run`` / ``scenario list``."""
    from repro.scenarios import (
        chaos_scenario_names,
        get_scenario,
        run_scenario,
        scenario_names,
    )

    if args.scenario_command == "list":
        for name in scenario_names() + chaos_scenario_names():
            spec = get_scenario(name)
            print(spec.describe())
        return 0
    spec = get_scenario(args.name, sites=args.sites, seed=args.seed)
    if args.algorithm:
        spec = replace(spec, algorithm=args.algorithm)
    if args.rebuild_policy:
        spec = replace(spec, rebuild_policy=args.rebuild_policy)
    overrides: dict = {"async_control": args.async_control or spec.async_control}
    for entry in _SPEC_FLAGS:
        value = getattr(args, entry.flag[2:].replace("-", "_"))
        if value is None or value is False:
            continue
        if entry.metavar is not None:
            value = tuple(entry.parse(text) for text in value)
        overrides[entry.field] = value
        overrides["async_control"] |= entry.implies_async
    spec = replace(spec, **overrides)
    report = run_scenario(
        spec, audit=args.audit, strict=args.strict, dataplane=args.dataplane
    )
    print(report.summary())
    failed = False
    if (
        args.max_unrecovered is not None
        and report.unrecovered_suspicions > args.max_unrecovered
    ):
        print(
            f"FAIL: {report.unrecovered_suspicions} unrecovered suspicions "
            f"(allowed {args.max_unrecovered})"
        )
        failed = True
    if (
        args.max_unrecovered_frames is not None
        and report.dataplane_frames_unrecovered > args.max_unrecovered_frames
    ):
        print(
            f"FAIL: {report.dataplane_frames_unrecovered} unrecovered frame "
            f"instances (allowed {args.max_unrecovered_frames})"
        )
        failed = True
    if (
        args.max_unrecovered_reports is not None
        and report.unrecovered_reports > args.max_unrecovered_reports
    ):
        print(
            f"FAIL: {report.unrecovered_reports} unrecovered parked reports "
            f"(allowed {args.max_unrecovered_reports})"
        )
        failed = True
    if failed:
        return 1
    return 0 if report.ok else 1


def cmd_disruption(args: argparse.Namespace) -> int:
    """Run the rebuild-policy disruption sweep and render it."""
    from repro.experiments.disruption import run_disruption

    result = run_disruption(
        scenario=args.scenario, sizes=args.sizes, seed=args.seed, audit=args.audit
    )
    title = (
        f"Disruption under churn ({args.scenario}): mean per-round parent "
        f"moves vs N, by rebuild policy"
    )
    print(series_table(result, "N", title=title))
    if not args.no_plot:
        print()
        print(series_plot(result, title, include=list(REBUILD_POLICIES)))
    return 0


def cmd_convergence(args: argparse.Namespace) -> int:
    """Run the control-convergence-vs-delay sweep and render it."""
    from repro.experiments.convergence import run_convergence

    result = run_convergence(
        scenario=args.scenario,
        delays=args.delays,
        sites=args.sites,
        seed=args.seed,
        debounce_ms=args.debounce_ms,
        audit=args.audit,
    )
    title = (
        f"Control convergence ({args.scenario}, N={args.sites}): last-ack "
        f"latency vs control-link delay, debounce {args.debounce_ms:.0f}ms"
    )
    print(series_table(result, "delay_ms", title=title))
    if not args.no_plot:
        print()
        print(series_plot(
            result, title,
            include=["mean-convergence-ms", "max-convergence-ms"],
        ))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fig8": cmd_fig8,
        "fig9": cmd_fig9,
        "fig10": cmd_fig10,
        "fig11": cmd_fig11,
        "all": cmd_all,
        "demo": cmd_demo,
        "scorecard": cmd_scorecard,
        "scenario": cmd_scenario,
        "disruption": cmd_disruption,
        "convergence": cmd_convergence,
    }
    try:
        outcome = handlers[args.command](args)
    except Tele3DError as error:
        print(f"tele3d: error: {error}", file=sys.stderr)
        return 2
    return int(outcome) if outcome is not None else 0


if __name__ == "__main__":
    sys.exit(main())
