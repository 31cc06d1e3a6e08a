"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_defaults(self):
        args = build_parser().parse_args(["figure7"])
        assert args.scales == 2
        assert args.iterations == 3

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.tenants == 4
        assert args.requests == 100
        assert args.fleet_size == 2
        assert args.fleet is None
        assert args.admission == "fair-share"
        assert args.placement == "least-loaded"
        assert args.traffic == "uniform"
        assert args.movement_window == 0
        assert args.serve_out is None

    def test_serve_bench_fleet_topology_flags(self):
        args = build_parser().parse_args(
            [
                "serve-bench",
                "--fleet", "2,2,1,1",
                "--traffic", "skewed",
                "--movement-window", "4",
                "--serve-out", "BENCH_serving.json",
            ]
        )
        assert args.fleet == "2,2,1,1"
        assert args.traffic == "skewed"
        assert args.movement_window == 4
        assert args.serve_out == "BENCH_serving.json"

    def test_serve_bench_flags(self):
        args = build_parser().parse_args(
            [
                "serve-bench",
                "--tenants", "6",
                "--requests", "30",
                "--fleet-size", "3",
                "--admission", "priority",
                "--placement", "round-robin",
            ]
        )
        assert (args.tenants, args.requests, args.fleet_size) == (6, 30, 3)
        assert args.admission == "priority"
        assert args.placement == "round-robin"

    def test_movement_bench_defaults(self):
        args = build_parser().parse_args(["movement-bench"])
        assert args.fleet_gpus == 2
        assert args.window == 4
        assert not args.no_serving_axes

    def test_movement_bench_fleet_flag(self):
        args = build_parser().parse_args(
            ["movement-bench", "--fleet-gpus", "0"]
        )
        assert args.fleet_gpus == 0

    def test_sim_bench_defaults(self):
        args = build_parser().parse_args(["sim-bench"])
        assert args.bench_out == "BENCH_simulator.json"

    def test_sim_bench_custom_output(self):
        args = build_parser().parse_args(
            ["sim-bench", "--bench-out", "/tmp/b.json"]
        )
        assert args.bench_out == "/tmp/b.json"

    def test_trace_flags_default_off(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.trace is False
        assert args.trace_out is None
        assert not hasattr(args, "target")

    def test_trace_flags(self):
        args = build_parser().parse_args(
            ["serve-bench", "--trace-out", "trace.json"]
        )
        assert args.trace_out == "trace.json"
        args = build_parser().parse_args(["sim-bench", "--trace"])
        assert args.trace is True

    def test_trace_is_a_flag_of_the_traced_experiment(self):
        args = build_parser().parse_args(["serve-bench", "--trace"])
        assert args.experiment == "serve-bench"
        assert args.trace is True

    def test_second_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure7", "serve-bench"])

    def test_trace_rejects_untraceable_experiment(self):
        with pytest.raises(SystemExit):
            main(["figure7", "--trace"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--trace-out", "x.json"],
            ["parallel-bench", "--trace"],
            ["all", "--trace"],
            ["serve-bench", "--chaos-grid", "--trace"],
            ["serve-bench", "--chaos-grid", "--trace-out", "x.json"],
        ],
        ids=" ".join,
    )
    def test_trace_flags_rejected_where_nothing_is_traced(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "serve-bench, sim-bench, movement-bench" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_trace_is_no_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "serve-bench"])

    def test_serve_bench_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-bench", "--admission", "lottery"]
            )

    def test_serve_bench_rejects_unknown_traffic_mix(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-bench", "--traffic", "tsunami"]
            )


class TestExecution:
    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "GPU memory" in out

    def test_figure2_runs(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2/6" in out
        assert "softmax(r1), softmax(r2)" in out

    def test_all_runs_exactly_the_paper_experiments(self, monkeypatch):
        ran = []
        monkeypatch.setattr(
            "repro.__main__.run_experiment",
            lambda name, args: ran.append(name),
        )
        assert main(["all"]) == 0
        assert ran == [
            "figure1", "figure2", "table1", "figure7", "figure8",
            "figure9", "figure10", "figure11", "figure12",
        ]

    def test_figure10_runs(self, capsys):
        assert main(["figure10", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "CT" in out

    @pytest.mark.parametrize(
        "admission", ["fifo", "priority", "fair-share"]
    )
    def test_serve_bench_runs_each_admission_policy(
        self, capsys, admission
    ):
        assert (
            main(
                [
                    "serve-bench",
                    "--tenants", "4",
                    "--requests", "12",
                    "--fleet-size", "2",
                    "--admission", admission,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"admission={admission}" in out
        assert "throughput" in out
        assert "tenant3" in out  # every tenant reported

    def test_serve_bench_heterogeneous_fleet_writes_json(
        self, capsys, tmp_path
    ):
        import json

        out_path = tmp_path / "BENCH_serving.json"
        assert (
            main(
                [
                    "serve-bench",
                    "--requests", "8",
                    "--tenants", "2",
                    "--fleet", "2,1",
                    "--serve-out", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fleet=[2,1]x" in out
        data = json.loads(out_path.read_text())
        assert data["fleet"] == [2, 1]
        assert data["total_gpus"] == 3
        assert data["requests"] == 8
        assert data["latency_ms"]["p99"] > 0
        # satellite: the summary carries the registry's capture-cache
        # and window-flush counts
        assert data["capture_misses"] > 0
        assert "window_flushes" in data
        assert data["counters"]["serve.admitted"] == 8

    def test_serve_bench_trace_out_writes_valid_chrome_trace(
        self, capsys, tmp_path
    ):
        from repro.obs.export import validate_chrome_trace_file

        trace_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "serve-bench",
                    "--requests", "6",
                    "--tenants", "2",
                    "--fleet", "2,1",
                    "--trace-out", str(trace_path),
                ]
            )
            == 0
        )
        assert f"wrote {trace_path}" in capsys.readouterr().out
        assert validate_chrome_trace_file(str(trace_path)) == []

    def test_bare_trace_writes_the_default_serving_trace(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.obs.export import validate_chrome_trace_file

        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "serve-bench", "--trace",
                    "--requests", "6", "--tenants", "2",
                ]
            )
            == 0
        )
        assert (tmp_path / "TRACE_serving.json").exists()
        assert (
            validate_chrome_trace_file(
                str(tmp_path / "TRACE_serving.json")
            )
            == []
        )

    def test_cluster_trace_holds_only_the_reported_replay(
        self, capsys, tmp_path, monkeypatch
    ):
        """Replays trace into fresh tracers: the trace of a 2-replay
        cluster run equals the 1-replay trace in canonical form, and a
        bare --trace on a cluster writes TRACE_cluster.json."""
        import json

        def canonical(path):
            doc = json.loads(path.read_text())
            for event in doc["traceEvents"]:
                for key in ("wall_s", "wall_dur_s"):
                    event.get("args", {}).pop(key, None)
            return doc

        monkeypatch.chdir(tmp_path)
        cluster = [
            "serve-bench", "--cluster", "2,1|2",
            "--requests", "12", "--tenants", "2",
        ]
        assert main([*cluster, "--cluster-runs", "1", "--trace"]) == 0
        twice = tmp_path / "twice.json"
        assert main([*cluster, "--trace-out", str(twice)]) == 0
        once = canonical(tmp_path / "TRACE_cluster.json")
        assert canonical(twice) == once
        assert not (tmp_path / "TRACE_serving.json").exists()


class TestUsageErrors:
    """Bad values exit with an argparse usage error (status 2) instead
    of a traceback or a silently ignored flag."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure7", "--iterations", "0"],
            ["figure7", "--scales", "0"],
            [
                "serve-bench", "--faults", "crash:slot=0,at=1e-3",
                "--fault-seed", "3",
            ],
            ["serve-bench", "--cluster", "1|1", "--chaos-grid"],
            ["movement-bench", "--fleet-gpus", "-3"],
            ["serve-bench", "--parallel", "process"],
        ],
        ids=[
            "zero-iterations",
            "zero-scales",
            "faults-and-fault-seed",
            "chaos-grid-on-cluster",
            "negative-fleet-gpus",
            "no-parallel-flag",
        ],
    )
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
