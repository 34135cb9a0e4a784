"""`repro watch fuzz|attack` and tools/watch_report.py: exit codes,
artifacts, budget enforcement, report rendering."""

import gzip
import json
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))


@pytest.fixture(autouse=True)
def clean_bus():
    obs.set_bus(None)
    yield
    obs.set_bus(None)


def _read_fuzz(tmp_path):
    """The fuzz record is gzip-compressed (snapshot stream dominates)."""
    with gzip.open(tmp_path / "watch_fuzz.json.gz", "rt") as fh:
        return json.load(fh)


def _fuzz_args(tmp_path, *extra):
    return [
        "watch", "fuzz", "--seed", "0", "--ops", "300",
        "--out", str(tmp_path), *extra,
    ]


class TestWatchFuzzCli:
    def test_green_run_exits_zero_and_writes_json(self, capsys, tmp_path):
        assert main(_fuzz_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "watchdog: clean" in out
        data = _read_fuzz(tmp_path)
        assert data["ok"]
        assert data["events"] >= 300
        assert data["events_dropped"] == 0
        assert data["peak_rss_mb"] > 0
        assert "watch.batches" in data["metrics"]
        assert data["snapshots_total"] >= len(data["snapshots"])
        assert not (tmp_path / "watch_fuzz.json").exists()  # gz only

    def test_state_budget_breach_fails(self, capsys, tmp_path):
        assert main(_fuzz_args(tmp_path, "--state-budget", "1")) == 1
        err = capsys.readouterr().err
        assert "state budget busted" in err
        data = _read_fuzz(tmp_path)
        assert not data["ok"]

    def test_rss_budget_breach_fails(self, capsys, tmp_path):
        assert main(_fuzz_args(tmp_path, "--rss-budget-mb", "1")) == 1
        assert "RSS budget busted" in capsys.readouterr().err

    def test_generous_budgets_pass(self, tmp_path):
        assert main(_fuzz_args(
            tmp_path, "--state-budget", "100000", "--rss-budget-mb", "4096",
        )) == 0

    def test_scheme_selection(self, tmp_path):
        assert main(_fuzz_args(tmp_path, "--scheme", "grid")) == 0
        data = _read_fuzz(tmp_path)
        assert data["scheme"] == "grid"

    def test_skip_writing_with_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["watch", "fuzz", "--seed", "0", "--ops", "100",
                     "--out", "-"]) == 0
        assert not (tmp_path / "benchmarks").exists()

    def test_snapshots_printed(self, capsys, tmp_path):
        assert main(_fuzz_args(tmp_path, "--snapshot-every", "3")) == 0
        assert "lag" in capsys.readouterr().out


@pytest.mark.parametrize("verb, runner", [
    ("fuzz", "stream_fuzz"),
    ("attack", "run_watchdog_canary"),
])
def test_missing_out_dir_fails_before_running(
    verb, runner, tmp_path, capsys, monkeypatch
):
    import repro.conformance.streaming as streaming

    def must_not_run(*a, **kw):
        raise AssertionError(f"{runner} ran before --out was checked")

    monkeypatch.setattr(streaming, runner, must_not_run)
    missing = tmp_path / "nope"
    assert main(["watch", verb, "--seed", "0", "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "not a directory" in err
    assert not missing.exists()


class TestWatchAttackCli:
    def test_attack_detected_and_control_clean(self, capsys, tmp_path):
        assert main(["watch", "attack", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "DETECTED ONLINE" in out
        assert "control: clean" in out
        data = json.loads((tmp_path / "watch_attack.json").read_text())
        assert data["ok"] and data["detected_online"] and data["control_clean"]
        assert data["detected_at_round"] < data["last_round"]

    def test_skip_writing_with_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["watch", "attack", "--seed", "0", "--out", "-"]) == 0
        assert not (tmp_path / "benchmarks").exists()


class TestWatchReportTool:
    def _run_both(self, tmp_path):
        main(_fuzz_args(tmp_path))
        main(["watch", "attack", "--seed", "0", "--out", str(tmp_path)])

    def test_renders_report_markdown(self, capsys, tmp_path):
        self._run_both(tmp_path)
        import watch_report

        assert watch_report.main(["--dir", str(tmp_path)]) == 0
        md = (tmp_path / "watchdog_report.md").read_text()
        assert "# Live watchdog report" in md
        assert "Streaming fuzz under the watchdog" in md
        assert "Online stale-majority canary" in md
        assert "DETECTED ONLINE" in md
        assert "`watch.batches`" in md

    def test_fuzz_only(self, tmp_path):
        main(_fuzz_args(tmp_path))
        import watch_report

        assert watch_report.main(["--dir", str(tmp_path)]) == 0
        md = (tmp_path / "watchdog_report.md").read_text()
        assert "canary" not in md.lower() or "Online" not in md

    def test_missing_inputs_exit_2(self, tmp_path):
        import watch_report

        assert watch_report.main(["--dir", str(tmp_path)]) == 2

    def test_failed_run_exits_nonzero(self, tmp_path):
        main(_fuzz_args(tmp_path, "--state-budget", "1"))
        import watch_report

        assert watch_report.main(["--dir", str(tmp_path)]) == 1
        assert "BUSTED" in (tmp_path / "watchdog_report.md").read_text()

    def test_sample_rows_caps_and_keeps_last(self):
        import watch_report

        rows = list(range(100))
        picked = watch_report.sample_rows(rows, limit=20)
        assert len(picked) <= 20
        assert picked[0] == 0 and picked[-1] == 99
        assert watch_report.sample_rows([1, 2], limit=20) == [1, 2]
