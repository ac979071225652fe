"""``scripts/scale_probe.py``: its child rows, its failure paths, its report.

The probe's real runs are at N = 1024 and 4096 and take minutes; these
checks drive the same code at N = 16, in process where they can.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "scale_probe", ROOT / "scripts" / "scale_probe.py"
)
scale_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_probe)

ROW_NAMES = [name for name, _ in scale_probe.ROWS]


def run_child(n: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        scale_probe.child(n)
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def rows():
    return run_child(16)


class TestChild:
    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_every_row_is_timed_with_its_counts(self, rows, name):
        assert "error" not in rows[name], rows[name]
        assert rows[name]["s"] >= 0.0
        assert rows[name]["counts"]

    def test_fast_plane_runs_over_the_built_forest(self, rows):
        built = rows["build"]["counts"]
        plane = rows["fast_plane"]["counts"]
        assert {key: plane[key] for key in built} == built
        assert plane["delivered"] > 0

    def test_repair_sees_the_leaver_gone(self, rows):
        assert rows["repair"]["counts"]["requests"] < rows["build"]["counts"]["requests"]

    def test_counts_are_deterministic(self, rows):
        again = run_child(16)
        assert {name: again[name]["counts"] for name in ROW_NAMES} == {
            name: rows[name]["counts"] for name in ROW_NAMES
        }

    def test_a_row_without_its_api_is_reported_not_skipped(self, monkeypatch):
        monkeypatch.setattr(
            scale_probe, "ROWS",
            scale_probe.ROWS + (("missing", lambda ctx: ctx["absent"]),),
        )
        rows = run_child(16)
        assert rows["missing"] == {"error": "KeyError: 'absent'"}
        assert "error" not in rows["dense_build"]


class TestMeasure:
    def test_runs_a_fresh_child_on_the_export(self):
        rows = scale_probe.measure(str(ROOT), 16)
        assert sorted(rows) == sorted(ROW_NAMES)
        assert all("s" in row for row in rows.values())

    def test_a_failing_child_marks_every_row(self, tmp_path):
        # An export whose repro cannot import: PYTHONPATH puts it ahead of
        # any installed copy, so the child dies whatever is installed.
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text('raise ImportError("broken export")\n')
        rows = scale_probe.measure(str(tmp_path), 16)
        assert sorted(rows) == sorted(ROW_NAMES)
        for row in rows.values():
            assert row["error"].startswith("child exited 1: ")
            assert "ImportError: broken export" in row["error"]


class TestMain:
    def test_sizes_pick_the_probed_site_counts(self, monkeypatch, capsys):
        measured = []

        def fake_measure(export, n):
            measured.append(n)
            return {name: {"s": 1.0, "counts": {"sites": n}} for name in ROW_NAMES}

        monkeypatch.setattr(scale_probe, "measure", fake_measure)
        assert scale_probe.main(["HEAD", "--sizes", "4096"]) == 0
        assert measured == [4096] * scale_probe.PASSES
        out = capsys.readouterr().out
        assert "== session, N=4096, 4 passes ==" in out
        assert "N=1024" not in out

    def test_sizes_default_to_1024_and_4096(self, monkeypatch, capsys):
        measured = []
        monkeypatch.setattr(
            scale_probe, "measure",
            lambda export, n: measured.append(n) or {
                name: {"s": 1.0, "counts": {}} for name in ROW_NAMES
            },
        )
        scale_probe.main(["HEAD"])
        assert measured == [1024, 4096] * scale_probe.PASSES


class TestReport:
    def test_median_and_quartiles(self):
        runs = [{"build": {"s": s, "counts": {"requests": 9}}} for s in (3.0, 1.0, 2.0)]
        assert scale_probe.report(runs, "build") == (
            "median    2.000 s  quartiles 1.000 .. 3.000  requests=9"
        )

    def test_one_pass_is_its_own_median_and_quartiles(self):
        runs = [{"build": {"s": 1.5, "counts": {"requests": 9}}}]
        assert "median    1.500 s  quartiles 1.500 .. 1.500" in scale_probe.report(
            runs, "build"
        )

    def test_differing_counts_are_all_shown(self):
        runs = [
            {"build": {"s": 1.0, "counts": {"requests": 9}}},
            {"build": {"s": 1.0, "counts": {"requests": 8}}},
            {"build": {"s": 1.0, "counts": {"requests": 9}}},
        ]
        assert scale_probe.report(runs, "build").endswith("requests=8 | requests=9")

    def test_any_error_makes_the_row_na(self):
        runs = [
            {"build": {"s": 1.0, "counts": {"requests": 9}}},
            {"build": {"error": "AttributeError: no rj"}},
        ]
        assert scale_probe.report(runs, "build") == "n/a: AttributeError: no rj"
