"""CLI surface of the served mode: ``repro serve`` and ``repro load``."""

import json

import pytest

from repro.cli import build_parser, main

#: tiny schemes so each CLI invocation stays fast
_QN = ["-q", "2", "-n", "3"]


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.shards == 2
        assert args.clients == 100
        assert args.round_capacity == 1024

    def test_load_defaults(self):
        args = build_parser().parse_args(["load"])
        assert args.clients == 100_000
        assert args.fault == "none"

    def test_load_rejects_bad_fault(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["load", "--fault", "nope"])


class TestServe:
    def test_lockstep_demo_is_deterministic(self, capsys):
        argv = ["serve", *_QN, "--clients", "12", "--ops-per-client", "3",
                "--keyspace", "64", "--seed", "0"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "completed" in first
        assert "serve: clean" in first

    def test_jitter_spreads_rounds(self, capsys):
        assert main(
            ["serve", *_QN, "--clients", "6", "--ops-per-client", "2",
             "--keyspace", "32", "--jitter", "0.01", "--seed", "1"]
        ) == 0
        assert "rounds" in capsys.readouterr().out


class TestLoad:
    def test_fault_free_run_reports_healthy(self, capsys):
        assert main(
            ["load", *_QN, "--clients", "60", "--ops-per-client", "2",
             "--keyspace", "128", "--round-capacity", "32",
             "--max-pending", "256", "--oracle"]
        ) == 0
        out = capsys.readouterr().out
        assert "load: healthy" in out
        assert "rounds/sec" in out

    def test_stale_soak_detects_and_exits_zero(self, capsys):
        assert main(
            ["load", *_QN, "--clients", "120", "--ops-per-client", "4",
             "--keyspace", "64", "--mix", "hotkey",
             "--round-capacity", "64", "--max-pending", "512",
             "--fault", "stale", "--attack-round", "2",
             "--victims", "3", "--heal-after", "4",
             "--get-fraction", "0.6", "--delete-fraction", "0",
             "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "phantom-read" in out

    def test_stale_soak_without_detection_fails(self, capsys):
        # attack mounted after the run already ended: nothing to detect
        assert main(
            ["load", *_QN, "--clients", "20", "--ops-per-client", "2",
             "--keyspace", "64", "--round-capacity", "32",
             "--fault", "stale", "--attack-round", "99999"]
        ) == 1
        assert "load: FAILED" in capsys.readouterr().out

    def test_json_out(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        assert main(
            ["load", *_QN, "--clients", "30", "--ops-per-client", "2",
             "--keyspace", "64", "--round-capacity", "16",
             "--json-out", str(path)]
        ) == 0
        rep = json.loads(path.read_text())
        assert rep["completed"] == 60
        assert rep["violations"] == 0

    def test_bench_out_writes_record(self, capsys, tmp_path):
        assert main(
            ["load", *_QN, "--clients", "30", "--ops-per-client", "2",
             "--keyspace", "64", "--round-capacity", "16",
             "--bench-out", str(tmp_path)]
        ) == 0
        benches = list(tmp_path.glob("BENCH_*.json"))
        assert len(benches) == 1
        rec = json.loads(benches[0].read_text())
        assert "load.latency_p95" in rec["sections"]
        assert rec["scalars"]["load.clients"] == 30

    @pytest.mark.parametrize("flag, target", [
        ("--json-out", "nope/rep.json"),
        ("--bench-out", "nope"),
    ])
    def test_bad_output_path_fails_before_running(
        self, flag, target, tmp_path, capsys, monkeypatch
    ):
        import repro.service.loadgen as loadgen

        def load_must_not_run(*a, **kw):
            raise AssertionError(f"run_load ran before {flag} was checked")

        monkeypatch.setattr(loadgen, "run_load", load_must_not_run)
        assert main(["load", *_QN, flag, str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not a directory" in err
        assert not (tmp_path / "nope").exists()

    def test_engine_flag_accepted(self, capsys):
        assert main(
            ["load", *_QN, "--clients", "20", "--ops-per-client", "2",
             "--keyspace", "64", "--round-capacity", "16",
             "--engine", "vector"]
        ) == 0
