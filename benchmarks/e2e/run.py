"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed 7]
        [--seconds S | --repeats K] [--trace [0|1]] [--scale full|smoke]
        [--out FILE] [--trace-dir DIR] [--check-repeatability]

Every *pass* of a workload runs in a fresh child process, one process at
a time.  A pass is seeded and deterministic, so step *i* does identical
work in every pass and host noise only ever adds time: timing metrics
come from the element-wise minimum across passes, set-up time from the
median, and everything simulated must repeat exactly.  With ``--trace 1``
the last pass runs under the span tracer and yields the per-layer
metrics; end-to-end metrics always come from untraced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when an output check fails.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: A full-scale pass is sized to about this many seconds of child wall
#: clock on the 2-vCPU reference box; ``--seconds`` buys passes at this
#: price (never fewer than two, the least an element-wise minimum needs).
PASS_SECONDS = 5.0
CHILD_TIMEOUT_S = 170

#: Figures moved from a pass's ``exact`` block into the per-layer output.
QUALITY = (
    "convergence_sim_ms_mean",
    "detection_sim_ms_mean",
    "rejection_ratio",
    "disruption_mean",
    "error_ratio",
)


# -- one pass, in a child process ---------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Run one pass of one workload and print its result as JSON."""
    import resource

    import numpy
    import tracer
    import workloads
    from repro.core.backend import resolve_backend

    driver = workloads.WORKLOADS[args.workload[0]]
    size = workloads.SIZES[args.scale][args.workload[0]]
    if args.trace:
        with tracer.Tracer() as trace:
            result = driver(args.seed, size)
        own = trace.self_times()
        result["trace"] = {
            "layers": trace.layers(own),
            "balance": trace.round_balance(own),
            "spans": len(trace.start),
            "missing": trace.missing,
            "repair_touched": trace.repair_touched,
            "repair_requests": trace.repair_requests,
        }
        if args.trace_dir:
            directory = Path(args.trace_dir)
            directory.mkdir(parents=True, exist_ok=True)
            trace.write_jsonl(directory / f"trace-{args.workload[0]}.jsonl")
    else:
        result = driver(args.seed, size)
    # Linux reports ru_maxrss in KiB.
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["backend"] = resolve_backend().name
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


def run_pass(workload: str, args: argparse.Namespace, traced: bool) -> dict:
    """Spawn one child pass, wait for it, and parse its result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--scale", args.scale, "--trace", "1" if traced else "0",
    ]
    if traced and args.trace_dir:
        command += ["--trace-dir", args.trace_dir]
    environment = dict(os.environ)
    # The benchmark measures the default backend (auto: numpy when present).
    environment.pop("TELE3D_BACKEND", None)
    inherited = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([inherited] if inherited else [])
    )
    done = subprocess.run(
        command, env=environment, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run.py: a pass of {workload} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# -- combining passes into metrics --------------------------------------------


def percentile(values: list[float], percent: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100.0 * len(ordered)) - 1)]


def tail_mean(values: list[float], share: float) -> float:
    """Mean of the slowest ``share`` of the values (at least one)."""
    slowest = sorted(values)[-max(1, round(share * len(values))):]
    return sum(slowest) / len(slowest)


def pass_run_s(result: dict) -> float:
    return sum(sum(series) for series in result["series_ms"].values()) / 1000.0


def fastest(untraced: list[dict]) -> dict[str, list[float]]:
    """Per series, the element-wise minimum across passes."""
    return {
        name: [min(column) for column in zip(*(p["series_ms"][name] for p in untraced))]
        for name in untraced[0]["series_ms"]
    }


def combine(untraced: list[dict]) -> dict:
    """End-to-end metrics from the untraced passes of one workload."""
    series = fastest(untraced)
    steps = series[untraced[0]["step_series"]]
    per_pass = [pass_run_s(p) for p in untraced]
    return {
        "metrics": {
            "setup_s": statistics.median(p["setup_s"] for p in untraced),
            "run_s": sum(sum(values) for values in series.values()) / 1000.0,
            "step_ms_p50": statistics.median(steps),
            # About one step in twenty meets a full garbage collection,
            # so p95 sits on the knee between the two kinds of step and
            # jumps from seed to seed; the mean of the slowest twentieth
            # (the samples from p95 on) is the bounded tail figure, and
            # p95 itself is reported with the per-layer metrics.
            "step_ms_tail5": tail_mean(steps, 0.05),
            "peak_rss_mb": max(p["rss_mb"] for p in untraced),
        },
        "step_ms_p95": percentile(steps, 95.0),
        "samples": len(steps),
        "per_pass": {
            "run_s": per_pass,
            "setup_s": [p["setup_s"] for p in untraced],
            "rss_mb": [p["rss_mb"] for p in untraced],
            "run_s_spread": max(per_pass) / min(per_pass),
        },
    }


def check_outputs(passes: list[dict]) -> list[str]:
    """Names of the output checks that failed (empty when all hold)."""
    problems = []
    first = passes[0]
    for index, other in enumerate(passes[1:], start=2):
        for block in ("exact", "counters"):
            for field, value in first[block].items():
                if other[block].get(field) != value:
                    problems.append(
                        f"{block}.{field}: pass 1 has {value!r}, "
                        f"pass {index} has {other[block].get(field)!r}"
                    )
        for name, series in first["series_ms"].items():
            if len(other["series_ms"].get(name, ())) != len(series):
                problems.append(f"series {name}: length differs in pass {index}")
    if first["exact"].get("audit_violations", 0):
        problems.append("exact.audit_violations is not zero")
    if first["exact"].get("planes_agree") is False:
        problems.append("exact.planes_agree: zero-noise event report != fast report")
    return problems


def layer_values(untraced: list[dict], traced: dict, combined: dict) -> dict:
    """Every per-layer figure this harness can compute, by metric name."""
    import tracer  # the span names only; nothing is patched in this process

    first = untraced[0]
    trace = traced["trace"]
    values: dict[str, float] = {}
    for name in {target[0] for target in tracer.TARGETS}:
        row = trace["layers"].get(name, {})
        for column in ("calls", "self_ms", "total_ms"):
            values[f"{name}.{column}"] = row.get(column, 0)
    values["pubsub.detector.self_ms"] = sum(
        row["self_ms"]
        for name, row in trace["layers"].items()
        if name.startswith("pubsub.detector.")
    )
    values["round.attributed_ratio"] = trace["balance"]["attributed_ratio"]
    values["core.incremental.repair.touched_fraction"] = (
        trace["repair_touched"] / trace["repair_requests"]
        if trace["repair_requests"]
        else 0.0
    )
    values.update(first["counters"])
    for name in QUALITY:
        values[name] = first["exact"].get(name, 0.0)
    series = fastest(untraced)
    for segment, frames in first.get("segment_frames", {}).items():
        values[f"{segment}_frames_per_s"] = frames / (sum(series[segment]) / 1000.0)
    values["step_ms_p95"] = combined["step_ms_p95"]
    values["trace_overhead_ratio"] = pass_run_s(traced) / combined["metrics"]["run_s"]
    values["trace.spans"] = trace["spans"]
    values["trace.targets_missing"] = trace["missing"]
    return values


def summarize(workload: str, passes: list[dict], spec: dict) -> dict:
    """Checks and metrics of one workload from all of its passes."""
    untraced = [p for p in passes if "trace" not in p]
    traced = [p for p in passes if "trace" in p]
    combined = combine(untraced)
    problems = check_outputs(passes)
    summary = {
        "workload": workload,
        "passes": len(passes),
        "backend": passes[0]["backend"],
        "numpy": passes[0]["numpy"],
        "problems": problems,
        "attempted": passes[0]["attempted"],
        "failed": passes[0]["failed"],
        "end_to_end": combined["metrics"],
        "step_ms_p95": combined["step_ms_p95"],
        "samples": combined["samples"],
        "per_pass": combined["per_pass"],
        "exact": passes[0]["exact"],
    }
    if traced:
        balance = traced[0]["trace"]["balance"]
        # The self times of a round's spans must add up to the round.
        if balance["worst_error"] > 0.05:
            problems.append(
                f"trace: a round's self times miss its duration by "
                f"{balance['worst_error']:.1%}"
            )
        values = layer_values(untraced, traced[0], combined)
        # A layer this workload never enters reports zero.
        summary["per_layer"] = {
            m["name"]: values.get(m["name"], 0) for m in spec["per_layer"]
        }
        summary["per_layer_computed"] = sorted(values)
        summary["layers"] = traced[0]["trace"]["layers"]
    summary["correct"] = not problems
    return summary


# -- printing -----------------------------------------------------------------


def print_summary(summary: dict, spec: dict, seed: int) -> None:
    print(
        f"== {summary['workload']}: seed {seed}, {summary['passes']} passes, "
        f"backend {summary['backend']}, {summary['samples']} steps =="
    )
    spread = summary["per_pass"]["run_s_spread"]
    for metric in spec["end_to_end"]:
        value = summary["end_to_end"][metric["name"]]
        print(f"  {metric['name']:<44} {value:>14.4f} {metric['unit']}")
    print(f"  {'run_s max/min across passes':<44} {spread:>14.4f} ratio")
    print(
        f"  attempted {summary['attempted']}, failed {summary['failed']}, "
        f"outputs {'correct' if summary['correct'] else 'WRONG'}"
    )
    for name, value in summary["exact"].items():
        print(f"  exact {name:<38} {value}")
    for metric in spec["per_layer"] if "per_layer" in summary else ():
        value = summary["per_layer"][metric["name"]]
        print(f"  {metric['name']:<44} {value:>14.4f} {metric['unit']}")
    for problem in summary["problems"]:
        print(f"  CHECK FAILED {problem}", file=sys.stderr)


def result_line(summaries: list[dict], spec: dict, traced: bool) -> str:
    """The contract's last line; metric names carry the workload when several ran."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    block = "per_layer" if traced else "end_to_end"
    metrics = {}
    for summary in summaries:
        prefix = f"{summary['workload']}." if len(summaries) > 1 else ""
        for metric in declared:
            metrics[prefix + metric["name"]] = {
                "value": summary[block][metric["name"]],
                "unit": metric["unit"],
            }
    return json.dumps(
        {
            "correct": all(summary["correct"] for summary in summaries),
            "attempted": sum(summary["attempted"] for summary in summaries),
            "failed": sum(summary["failed"] for summary in summaries),
            "metrics": metrics,
        }
    )


# -- sets of runs ---------------------------------------------------------------


def measure(names: list[str], args: argparse.Namespace, spec: dict) -> list[dict]:
    """Run every pass of every named workload; one summary per workload.

    Passes are ordered pass-major (w1 w2 w3 w4, w1 w2 ...), so one
    workload's passes are spread over the whole session.
    """
    count = args.repeats or max(2, round(args.seconds / PASS_SECONDS))
    passes: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(count):
        traced = bool(args.trace) and index == count - 1
        for name in names:
            passes[name].append(run_pass(name, args, traced))
    return [summarize(name, passes[name], spec) for name in names]


def check_repeatability(names, args, spec) -> int:
    """Two sets back to back; every metric must agree within its bound."""
    first = measure(names, args, spec)
    second = measure(names, args, spec)
    worst = 0
    print(f"{'workload':<18} {'metric':<14} {'set 1':>12} {'set 2':>12} "
          f"{'rel diff':>9} {'bound':>6}")
    for one, two in zip(first, second):
        for metric in spec["end_to_end"]:
            a = one["end_to_end"][metric["name"]]
            b = two["end_to_end"][metric["name"]]
            difference = abs(a - b) / a
            verdict = "" if difference <= metric["bound"] else "  EXCEEDED"
            worst += bool(verdict)
            print(
                f"{one['workload']:<18} {metric['name']:<14} {a:>12.4f} {b:>12.4f} "
                f"{difference:>9.4f} {metric['bound']:>6.2f}{verdict}"
            )
        for name, value in one["exact"].items():
            if two["exact"][name] != value:
                worst += 1
                print(f"{one['workload']:<18} exact {name}: {value!r} != "
                      f"{two['exact'][name]!r}  NOT EQUAL")
        if not (one["correct"] and two["correct"]):
            worst += 1
    print("repeatability:", "ok" if not worst else f"{worst} metrics out of bound")
    return 1 if worst else 0


def commit_id() -> str | None:
    """The checkout's commit, when it is a git checkout at all."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="measuring budget per workload")
    parser.add_argument("--repeats", type=int, help="exact pass count, overrides --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--trace-dir", help="write trace-<workload>.jsonl here")
    parser.add_argument("--check-repeatability", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: no src/repro beside the benchmark: nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {', '.join(known)}")
    if args.repeats is not None and args.repeats < 2:
        parser.error("--repeats must be at least 2")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    if args.check_repeatability:
        return check_repeatability(names, args, spec)
    summaries = measure(names, args, spec)
    for summary in summaries:
        print_summary(summary, spec, args.seed)
    if args.out:
        document = {
            "seed": args.seed,
            "scale": args.scale,
            "commit": commit_id(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "workloads": summaries,
        }
        Path(args.out).write_text(json.dumps(document, indent=1))
    print(result_line(summaries, spec, bool(args.trace)))
    return 0 if all(summary["correct"] for summary in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
