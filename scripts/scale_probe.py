#!/usr/bin/env python3
"""Time the large-N rows at several git refs, on one box, in alternation.

    scripts/scale_probe.py REF [REF ...] [--sizes N [N ...]]

Each REF's ``src`` is exported (`git archive`) into a temporary directory
(removed on exit; TMPDIR picks where).  Each of the PASSES passes runs
one fresh child per (N in --sizes, default SIZES, ref) with
``PYTHONPATH=<export>/src``,
so each ref runs its own code and this file only drives it; odd passes
take the refs in the order given, even passes reversed.  A child times each row once, in table order:

    session      build_session on synthetic-N, 4 streams/site, 2 displays
    build        rj over the coverage workload: mean 6 subscribers, 120 ms
    fast_plane   FastDataPlane.run(1000 ms) over that forest
    repair       one IncrementalRepairer.repair after site 1 leaves
    dense_build  rj over site 0's streams, each other site subscribing
                 with probability 0.75 (~777-member trees at N=1024)

all seeded with 42 under the labels the retired perf sweep used, so old
recordings compare like with like.  Prints per row and ref the median and
quartiles over the passes and the row's counts (requests, satisfied,
largest tree, ...), so equal inputs are shown rather than assumed.  A row
whose API a ref lacks prints ``n/a: <error>``.  On a 2-vCPU box a child
at N=4096 takes about 50 s, a third of it session set-up, and peaks at
about 1.9 GB.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

SEED = 42
SIZES = (1024, 4096)
PASSES = 4


def _counts(problem, result) -> dict:
    largest = max((len(tree) for tree in result.forest.trees.values()), default=0)
    return {"requests": problem.total_requests(),
            "satisfied": len(result.satisfied), "largest": largest}


def row_session(ctx):
    from repro.session.capacity import UniformCapacityModel
    from repro.session.session import SessionConfig, build_session
    from repro.topology.backbone import load_backbone

    n = ctx["n"]
    return lambda: build_session(
        load_backbone(f"synthetic-{n}"), UniformCapacityModel(streams_per_site=4),
        ctx["rng"].spawn("session"), SessionConfig(n_sites=n, displays_per_site=2),
    ), lambda session: {"sites": ctx.setdefault("session", session).n_sites}


def row_build(ctx):
    from repro.core.problem import ForestProblem
    from repro.core.registry import make_builder
    from repro.workload.coverage import CoverageWorkloadModel

    ctx["workload"] = CoverageWorkloadModel(
        mean_subscribers=6.0, guarantee_coverage=False
    ).generate(ctx["session"], ctx["rng"].spawn("workload"))
    problem = ctx["problem"] = ForestProblem.from_workload(
        ctx["session"], ctx["workload"], 120.0)
    return lambda: make_builder("rj").build(problem, ctx["rng"].spawn("build")), (
        lambda result: _counts(problem, ctx.setdefault("result", result)))


def row_fast_plane(ctx):
    from repro.sim.dataplane import FastDataPlane

    plane = FastDataPlane(ctx["session"], ctx["result"].forest,
                          ctx["rng"].spawn("dataplane"))
    return lambda: plane.run(1000.0), lambda report: dict(
        _counts(ctx["problem"], ctx["result"]), delivered=report.frames_delivered)


def row_repair(ctx):
    from repro.core.incremental import IncrementalRepairer
    from repro.core.problem import ForestProblem
    from repro.workload.spec import SubscriptionWorkload

    n, workload = ctx["n"], ctx["workload"]
    sets = {site: workload.streams_of(site) for site in range(n) if site != 1}
    problem = ForestProblem.evolve(
        ctx["problem"], SubscriptionWorkload.from_site_sets(n, sets))
    return lambda: IncrementalRepairer().repair(ctx["result"], problem), (
        lambda report: _counts(problem, report.result))


def row_dense_build(ctx):
    from repro.core.problem import ForestProblem
    from repro.core.registry import make_builder
    from repro.util.rng import RngStream
    from repro.workload.spec import SubscriptionWorkload

    n, draws = ctx["n"], RngStream(SEED, label=f"perf/dense/N{ctx['n']}")
    streams = ctx["session"].site(0).stream_ids
    sets = {site: tuple(s for s in streams if draws.random() < 0.75)
            for site in range(1, n)}
    problem = ForestProblem.from_workload(ctx["session"], SubscriptionWorkload.
        from_site_sets(n, {site: chosen for site, chosen in sets.items() if chosen}),
        120.0)
    return lambda: make_builder("rj").build(
        problem, ctx["rng"].spawn("dense-build")
    ), lambda result: _counts(problem, result)


ROWS = (("session", row_session), ("build", row_build),
        ("fast_plane", row_fast_plane), ("repair", row_repair),
        ("dense_build", row_dense_build))


def child(n: int) -> None:
    """Time every row once at N=n against the ``repro`` on PYTHONPATH."""
    from repro.util.rng import RngStream

    ctx, out = {"n": n, "rng": RngStream(SEED, label=f"perf/N{n}")}, {}
    for name, row in ROWS:
        try:
            run, counts = row(ctx)
            start = time.perf_counter()
            value = run()
            out[name] = {"s": time.perf_counter() - start, "counts": counts(value)}
        except Exception as error:  # a ref without this row's API
            out[name] = {"error": f"{type(error).__name__}: {error}"}
    print(json.dumps(out))


def measure(export: str, n: int) -> dict:
    """One fresh child at N=n on ``export``'s src; its rows, or the failure."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", str(n)],
        cwd=export, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(export, "src")))
    if proc.returncode == 0:
        return json.loads(proc.stdout.splitlines()[-1])
    error = f"child exited {proc.returncode}: {proc.stderr.strip()[-160:]}"
    return {name: {"error": error} for name, _ in ROWS}


def report(runs: list[dict], name: str) -> str:
    """``median .. quartiles  counts`` over one ref's passes of one row."""
    results = [rows[name] for rows in runs]
    errors = [result["error"] for result in results if "error" in result]
    if errors:
        return f"n/a: {errors[0]}"
    seconds = [result["s"] for result in results]
    q1, median, q3 = (statistics.quantiles(seconds, n=4) if len(seconds) > 1
                      else seconds * 3)
    counts = sorted({json.dumps(result["counts"]) for result in results})
    shown = " | ".join(" ".join(f"{key}={value}" for key, value in
                                json.loads(text).items()) for text in counts)
    return f"median {median:8.3f} s  quartiles {q1:.3f} .. {q3:.3f}  {shown}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("refs", nargs="+")
    parser.add_argument("--sizes", nargs="+", type=int, default=list(SIZES),
                        metavar="N", help="site counts to probe (default: "
                        f"{' '.join(map(str, SIZES))})")
    args = parser.parse_args(argv)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    runs: dict[tuple[int, str], list[dict]] = {}
    with tempfile.TemporaryDirectory(prefix="scale-probe.") as work:
        exports = {}
        for ref in args.refs:
            exports[ref] = os.path.join(work, ref.replace("/", "_"))
            os.makedirs(exports[ref])
            archive = subprocess.run(["git", "-C", repo, "archive", ref, "src"],
                                     capture_output=True)
            if archive.returncode:
                raise SystemExit(f"scale_probe.py: {archive.stderr.decode().strip()}")
            subprocess.run(["tar", "-x", "-C", exports[ref]], input=archive.stdout,
                           check=True)
            print(f"{ref} in {exports[ref]}", flush=True)
        for number in range(PASSES):
            for n in args.sizes:
                for ref in args.refs[:: 1 if number % 2 == 0 else -1]:
                    runs.setdefault((n, ref), []).append(measure(exports[ref], n))
                    print(f"pass {number + 1}/{PASSES} N={n} {ref} done",
                          flush=True)
    for n in args.sizes:
        for name, _ in ROWS:
            print(f"\n== {name}, N={n}, {PASSES} passes ==")
            for ref in args.refs:
                print(f"{ref:<12} {report(runs[(n, ref)], name)}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(int(sys.argv[2])))
    sys.exit(main())
