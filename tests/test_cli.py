"""Unit tests for the CLI argument parser (integration runs elsewhere)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser


class TestParser:
    def test_fig8_defaults(self):
        args = build_parser().parse_args(["fig8"])
        assert args.command == "fig8"
        assert args.workload == "random"
        assert args.nodes == "uniform"
        assert args.samples == 200
        assert args.seed == 42
        assert not args.no_plot

    def test_fig8_options(self):
        args = build_parser().parse_args(
            ["fig8", "--workload", "zipf", "--nodes", "heterogeneous",
             "--samples", "10", "--seed", "3", "--no-plot"]
        )
        assert args.workload == "zipf"
        assert args.nodes == "heterogeneous"
        assert args.samples == 10
        assert args.seed == 3
        assert args.no_plot

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--workload", "gaussian"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["fig9", "fig10", "fig11", "all"])
    def test_other_figures_parse(self, command):
        args = build_parser().parse_args([command, "--samples", "5"])
        assert args.command == command
        assert args.samples == 5

    def test_demo_options(self):
        args = build_parser().parse_args(["demo", "--sites", "7", "--seed", "9"])
        assert args.sites == 7
        assert args.seed == 9

    def test_backbone_option(self):
        args = build_parser().parse_args(["fig9", "--backbone", "abilene"])
        assert args.backbone == "abilene"

    def test_audit_flag_on_figures(self):
        args = build_parser().parse_args(["fig8", "--audit"])
        assert args.audit
        args = build_parser().parse_args(["fig8"])
        assert not args.audit


class TestScenarioParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["scenario", "run", "flash-crowd"])
        assert args.command == "scenario"
        assert args.scenario_command == "run"
        assert args.name == "flash-crowd"
        assert args.sites == 8
        assert args.seed == 7
        assert args.audit
        assert not args.strict
        assert args.algorithm is None

    def test_run_options(self):
        args = build_parser().parse_args(
            ["scenario", "run", "mixed-churn", "--sites", "12", "--seed", "3",
             "--algorithm", "co-rj", "--audit", "--strict"]
        )
        assert args.sites == 12
        assert args.seed == 3
        assert args.algorithm == "co-rj"
        assert args.audit
        assert args.strict

    def test_no_audit(self):
        args = build_parser().parse_args(
            ["scenario", "run", "fov-thrash", "--no-audit"]
        )
        assert not args.audit

    def test_audit_and_no_audit_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "fov-thrash", "--audit", "--no-audit"]
            )

    def test_list(self):
        args = build_parser().parse_args(["scenario", "list"])
        assert args.scenario_command == "list"

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_rebuild_policy_default_none(self):
        args = build_parser().parse_args(["scenario", "run", "mass-leave"])
        assert args.rebuild_policy is None

    def test_rebuild_policy_choices(self):
        args = build_parser().parse_args(
            ["scenario", "run", "mass-leave", "--rebuild-policy", "incremental"]
        )
        assert args.rebuild_policy == "incremental"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "mass-leave", "--rebuild-policy", "never"]
            )

    def test_hybrid_policy_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as run_exit:
            main(["scenario", "run", "mass-leave", "--rebuild-policy", "hybrid"])
        assert run_exit.value.code == 2
        assert "invalid choice: 'hybrid'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--problem-assembly", "diffed"),
            ("--delta-source", "scan"),
            ("--drift-mode", "measure"),
        ],
    )
    def test_reference_path_flags_rejected(self, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "mass-leave", flag, value]
            )

    def test_backend_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as scenario_exit:
            build_parser().parse_args(
                ["scenario", "run", "flash-crowd", "--backend", "numpy"]
            )
        assert scenario_exit.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_async_control_flags(self):
        args = build_parser().parse_args(
            ["scenario", "run", "flash-crowd", "--async-control",
             "--control-delay-ms", "50", "--debounce-ms", "15"]
        )
        assert args.async_control
        assert args.control_delay_ms == 50.0
        assert args.debounce_ms == 15.0

    def test_async_control_defaults_off(self):
        args = build_parser().parse_args(["scenario", "run", "flash-crowd"])
        assert not args.async_control
        assert args.control_delay_ms is None
        assert args.debounce_ms is None

    def test_chaos_flags(self):
        args = build_parser().parse_args(
            ["scenario", "run", "flash-crowd", "--loss-rate", "0.2",
             "--jitter-ms", "8", "--duplicate-rate", "0.05",
             "--partition", "0:600:1100", "--heartbeat-ms", "40",
             "--miss-threshold", "3", "--retransmit-timeout-ms", "60",
             "--max-unrecovered", "0"]
        )
        assert args.loss_rate == 0.2
        assert args.jitter_ms == 8.0
        assert args.duplicate_rate == 0.05
        assert args.partition == ["0:600:1100"]
        assert args.heartbeat_ms == 40.0
        assert args.miss_threshold == 3
        assert args.retransmit_timeout_ms == 60.0
        assert args.max_unrecovered == 0

    def test_control_plane_flags_imply_async_control(self):
        from repro.cli import _SPEC_FLAGS
        from repro.scenarios.spec import CONTROL_PLANE_FIELDS

        flagged = {entry.field for entry in _SPEC_FLAGS}
        assert set(CONTROL_PLANE_FIELDS) <= flagged
        others = flagged - set(CONTROL_PLANE_FIELDS)
        assert all(field.startswith("data_") for field in others)

    def test_chaos_flags_default_none(self):
        args = build_parser().parse_args(["scenario", "run", "flash-crowd"])
        assert args.loss_rate is None
        assert args.heartbeat_ms is None
        assert args.retransmit_timeout_ms is None
        assert args.partition is None
        assert args.max_unrecovered is None

    def test_partition_format_rejected(self):
        from repro.cli import _parse_partition

        with pytest.raises(SystemExit):
            _parse_partition("0:600")
        with pytest.raises(SystemExit):
            _parse_partition("a:b:c")

    @pytest.mark.parametrize(
        "flag,text",
        (("--partition", "0:nan:500"), ("--partition", "0:0:nan"),
         ("--partition", "0:inf:inf"), ("--partition", "0:-1:500"),
         ("--server-outage", "nan:500"), ("--server-outage", "0:nan"),
         ("--server-outage", "300:inf")),
    )
    def test_invalid_window_exits_2_naming_the_flag(self, capsys, flag, text):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", "run", "flash-crowd", "--sites", "4", flag, text])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tele3d: error: {flag} '{text}': ")


    def test_partition_outside_the_pool_exits_2_naming_the_site(self, capsys):
        from repro.cli import main

        code = main(["scenario", "run", "flash-crowd", "--sites", "8",
                     "--partition", "99:0:100"])
        assert code == 2
        assert "partition site 99" in capsys.readouterr().err


#: One valid ``scenario run`` argument list per spec flag; the server
#: outage, miss-threshold and phi flags need the heartbeat (and retransmit)
#: flags beside them.
FLAG_ARGUMENTS = {
    "--control-delay-ms": ["--control-delay-ms", "5"],
    "--debounce-ms": ["--debounce-ms", "5"],
    "--loss-rate": ["--loss-rate", "0.1"],
    "--jitter-ms": ["--jitter-ms", "2"],
    "--duplicate-rate": ["--duplicate-rate", "0.1"],
    "--partition": ["--partition", "0:10:20"],
    "--heartbeat-ms": ["--heartbeat-ms", "40"],
    "--miss-threshold": ["--miss-threshold", "5", "--heartbeat-ms", "40"],
    "--retransmit-timeout-ms": ["--retransmit-timeout-ms", "60"],
    "--server-outage": ["--server-outage", "100:200", "--heartbeat-ms", "40",
                        "--retransmit-timeout-ms", "60"],
    "--phi-threshold": ["--phi-threshold", "8", "--heartbeat-ms", "40"],
    "--checkpoint-interval-ms": ["--checkpoint-interval-ms", "50"],
    "--data-loss-rate": ["--data-loss-rate", "0.1"],
    "--data-jitter-ms": ["--data-jitter-ms", "2"],
    "--data-duplicate-rate": ["--data-duplicate-rate", "0.1"],
    "--data-nack": ["--data-nack"],
    "--data-max-repair-attempts": ["--data-max-repair-attempts", "5"],
    "--data-repair-deadline-factor": ["--data-repair-deadline-factor", "4"],
}


class _Captured(Exception):
    """Carries the spec ``scenario run`` would have run."""


class TestAsyncImplication:
    """Each spec flag sets its field; a control-plane field's flag turns on
    ``async_control``, a data-plane flag leaves it off."""

    def test_every_spec_flag_has_arguments(self):
        from repro.cli import _SPEC_FLAGS

        assert [entry.flag for entry in _SPEC_FLAGS] == list(FLAG_ARGUMENTS)

    @pytest.mark.parametrize("flag", list(FLAG_ARGUMENTS))
    def test_flag_sets_its_field_and_implies_async_per_the_spec(
        self, flag, monkeypatch
    ):
        import repro.scenarios
        from repro.cli import _SPEC_FLAGS, main
        from repro.scenarios.spec import CONTROL_PLANE_FIELDS

        def capture(spec, **kwargs):
            raise _Captured(spec)

        monkeypatch.setattr(repro.scenarios, "run_scenario", capture)
        with pytest.raises(_Captured) as captured:
            main(["scenario", "run", "flash-crowd", *FLAG_ARGUMENTS[flag]])
        spec = captured.value.args[0]
        field = next(entry.field for entry in _SPEC_FLAGS if entry.flag == flag)
        assert getattr(spec, field) != getattr(
            repro.scenarios.get_scenario("flash-crowd"), field
        )
        assert spec.async_control == (field in CONTROL_PLANE_FIELDS)


class TestConvergenceParser:
    def test_defaults(self):
        args = build_parser().parse_args(["convergence"])
        assert args.command == "convergence"
        assert args.scenario == "flash-crowd"
        assert args.delays == (0.0, 20.0, 50.0, 100.0)
        assert args.sites == 8
        assert args.debounce_ms == 10.0
        assert not args.audit

    def test_options(self):
        args = build_parser().parse_args(
            ["convergence", "--scenario", "mixed-churn", "--delays", "0,80",
             "--sites", "12", "--debounce-ms", "25", "--audit", "--no-plot"]
        )
        assert args.scenario == "mixed-churn"
        assert args.delays == (0.0, 80.0)
        assert args.sites == 12
        assert args.debounce_ms == 25.0
        assert args.audit
        assert args.no_plot


class TestDisruptionParser:
    def test_defaults(self):
        args = build_parser().parse_args(["disruption"])
        assert args.command == "disruption"
        assert args.scenario == "mixed-churn"
        assert args.sizes == (8, 16, 32)
        assert args.seed == 7
        assert not args.audit

    def test_options(self):
        args = build_parser().parse_args(
            ["disruption", "--scenario", "mass-leave", "--sizes", "4,6",
             "--seed", "3", "--audit", "--no-plot"]
        )
        assert args.scenario == "mass-leave"
        assert args.sizes == (4, 6)
        assert args.audit and args.no_plot


class TestListFlags:
    @pytest.mark.parametrize(
        "argv",
        (["disruption", "--sizes", "8,x"], ["disruption", "--sizes", ""],
         ["disruption", "--sizes", "8,,16"], ["disruption", "--sizes", "4,"],
         ["convergence", "--delays", "0,abc"], ["convergence", "--delays", ""]),
    )
    def test_bad_item_exits_2_naming_the_flag(self, capsys, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {argv[1]}: " in capsys.readouterr().err


class TestScenarioCommands:
    def test_list_prints_all(self, capsys):
        from repro.cli import main
        from repro.scenarios import scenario_names

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_small_scenario_clean(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "run", "flash-crowd", "--sites", "4", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 violations" in out
        assert "digest" in out

    def test_run_with_rebuild_policy(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "run", "mass-leave", "--sites", "4", "--seed", "2",
             "--rebuild-policy", "incremental"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "overlay maintenance [incremental]" in out
        assert "0 violations" in out

    def test_infinite_repair_deadline_exits_2(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "run", "lossy-dissemination", "--sites", "4", "--seed",
             "7", "--data-repair-deadline-factor", "inf"]
        )
        assert code == 2
        assert "data_repair_deadline_factor" in capsys.readouterr().err

    def test_non_finite_control_delay_rejected(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "run", "flash-crowd", "--sites", "6", "--seed", "7",
             "--control-delay-ms", "inf"]
        )
        assert code != 0
        assert "control_delay_ms" in capsys.readouterr().err


class TestChaosCommands:
    def test_list_prints_chaos_family(self, capsys):
        from repro.cli import main
        from repro.scenarios import chaos_scenario_names

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in chaos_scenario_names():
            assert name in out

    def test_run_chaos_scenario_gated(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "run", "lossy-flash-crowd", "--sites", "6",
             "--seed", "2", "--max-unrecovered", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos:" in out
        assert "0 violations" in out

    def test_unrecovered_gate_fails_loudly(self, capsys):
        from repro.cli import main

        # An impossible bound: any run with at least one detection
        # cannot satisfy max-unrecovered below zero.
        code = main(
            ["scenario", "run", "flash-crowd", "--sites", "4", "--seed", "2",
             "--async-control", "--max-unrecovered", "-1"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_data_chaos_flags_run_the_nack_plane(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "run", "flash-crowd", "--sites", "5", "--seed", "3",
             "--data-loss-rate", "0.2", "--data-jitter-ms", "5",
             "--data-nack", "--data-max-repair-attempts", "30",
             "--data-repair-deadline-factor", "20"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "data chaos:" in out
        assert "0 violations" in out
        # Crucially the data knobs did NOT drag in the async control
        # plane (no control chaos, no convergence line).
        assert "async control" not in out

    def test_miss_threshold_alone_runs_the_async_plane(self, capsys):
        from repro.cli import main

        code = main(["scenario", "run", "flash-crowd", "--sites", "4",
                     "--seed", "2", "--miss-threshold", "5",
                     "--heartbeat-ms", "40"])
        assert code == 0
        assert "async control" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "detector", [[], ["--heartbeat-ms", "40", "--phi-threshold", "8"]],
        ids=["no-heartbeats", "phi"],
    )
    def test_miss_threshold_without_its_detector_exits_2(self, capsys, detector):
        from repro.cli import main

        code = main(["scenario", "run", "flash-crowd", "--sites", "4",
                     "--seed", "2", "--miss-threshold", "5", *detector])
        assert code == 2
        assert "miss_threshold" in capsys.readouterr().err

    def test_unrecovered_frames_gate_fails_loudly(self, capsys):
        from repro.cli import main

        # Same impossible-bound trick for the data-plane gate.
        code = main(
            ["scenario", "run", "flash-crowd", "--sites", "4", "--seed", "2",
             "--max-unrecovered-frames", "-1"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "unrecovered frame" in out


class TestDisruptionCommand:
    def test_sweep_prints_policy_series(self, capsys):
        from repro.cli import main

        code = main(
            ["disruption", "--scenario", "mass-leave", "--sizes", "4,5",
             "--seed", "3", "--no-plot"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "always" in out
        assert "incremental" in out
        assert "hybrid" not in out
