"""Tier-1 smoke test of the benchmark harness (``--scale smoke``).

Runs all four workloads small (N <= 16, <= 20 rounds, two passes, the
second one traced) and checks the contract of ``BENCHMARK.json``: every
declared metric is reported under its name and unit, traced and untraced
passes produce the same outputs, and the tracer leaves the program as it
found it.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_benchmark(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", *arguments],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run of all four workloads: (document, stdout)."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = run_benchmark("--repeats", "2", "--trace", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text()), done.stdout


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_reports_every_declared_metric(smoke):
    document, _ = smoke
    summaries = {summary["workload"]: summary for summary in document["workloads"]}
    assert list(summaries) == [workload["name"] for workload in SPEC["workloads"]]
    computed = set()
    for summary in summaries.values():
        assert set(summary["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(value > 0 for value in summary["end_to_end"].values())
        assert set(summary["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        computed.update(summary["per_layer_computed"])
    # A layer may be idle on one workload, but a declared metric that no
    # workload ever computes is a typo in BENCHMARK.json.
    assert {m["name"] for m in SPEC["per_layer"]} <= computed


def test_traced_and_untraced_passes_agree_and_outputs_are_correct(smoke):
    document, _ = smoke
    for summary in document["workloads"]:
        # ``problems`` lists every digest, count or simulated figure that
        # differs between the untraced pass and the traced one.
        assert summary["problems"] == [], summary["workload"]
        assert summary["correct"] and summary["failed"] == 0
        assert summary["per_layer"]["trace.targets_missing"] == 0
        assert summary["per_layer"]["trace.spans"] > 0


def test_workloads_stress_different_layers(smoke):
    document, _ = smoke
    layers = {s["workload"]: s["per_layer"] for s in document["workloads"]}
    assert layers["rebuild_dense"]["core.incremental.repair.calls"] == 0
    assert layers["rebuild_dense"]["core.problem.from_workload.calls"] > 1
    assert layers["churn_incremental"]["core.problem.evolve.calls"] > 0
    assert layers["churn_incremental"]["core.problem.from_workload.calls"] == 1
    assert layers["control_chaos"]["pubsub.faults.transmit.calls"] > 0
    for name in ("churn_incremental", "rebuild_dense", "control_chaos"):
        assert not any(
            value for metric, value in layers[name].items()
            if metric.startswith("sim.dataplane.")
        )
    assert layers["dissemination"]["sim.dataplane.event.run.calls"] > 0


def test_last_line_is_the_contract_object(smoke):
    _, stdout = smoke
    keys = {"correct", "attempted", "failed", "metrics"}
    assert set(json.loads(stdout.splitlines()[-1])) == keys
    done = run_benchmark("--workload", "rebuild_dense", "--repeats", "2")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == keys
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]
    }


def test_tracer_restores_every_patched_attribute():
    targets = [
        (owner, attribute, vars(owner)[attribute])
        for _, owner, attribute in tracer.resolve_targets()
        if owner is not None
    ]
    assert len(targets) == len(tracer.TARGETS)
    with tracer.Tracer() as trace:
        assert trace.missing == 0
        assert all(vars(owner)[attr] is not original for owner, attr, original in targets)
    assert all(vars(owner)[attr] is original for owner, attr, original in targets)
