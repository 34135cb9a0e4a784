"""`repro conform fuzz|check|report`: exit codes, artifacts, rendering."""

import json

from repro.cli import main
from repro.conformance.differential import REPORT_BASENAME
from repro.conformance.recorder import record
from repro.schemes.pp_adapter import PPAdapter


def _small_fuzz_args(tmp_path, *extra):
    return [
        "conform", "fuzz", "--seed", "0", "--ops", "60",
        "--out", str(tmp_path), *extra,
    ]


class TestConformFuzz:
    def test_green_run_exits_zero(self, capsys, tmp_path):
        assert main(_small_fuzz_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "**Overall: PASS**" in out
        assert "Stale-majority canary: DETECTED" in out

    def test_writes_report_pair(self, tmp_path):
        main(_small_fuzz_args(tmp_path))
        md = tmp_path / (REPORT_BASENAME + ".md")
        js = tmp_path / (REPORT_BASENAME + ".json")
        assert md.exists() and js.exists()
        data = json.loads(js.read_text())
        assert data["ok"] and len(data["rows"]) == 6

    def test_no_canary_flag(self, capsys, tmp_path):
        assert main(_small_fuzz_args(tmp_path, "--no-canary")) == 0
        assert "canary" not in capsys.readouterr().out

    def test_trace_dir_artifacts(self, tmp_path):
        traces = tmp_path / "traces"
        main(_small_fuzz_args(tmp_path, "--trace-dir", str(traces)))
        assert len(list(traces.glob("trace_*.jsonl"))) == 6

    def test_skip_writing_with_dash(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # guard against writing to the default dir
        assert main(["conform", "fuzz", "--seed", "0", "--ops", "40",
                     "--out", "-"]) == 0
        assert not (tmp_path / "benchmarks").exists()

    def test_missing_out_dir_fails_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.conformance.differential as differential

        def must_not_run(*a, **kw):
            raise AssertionError("fuzz ran before --out was checked")

        monkeypatch.setattr(differential, "run_fuzz", must_not_run)
        missing = tmp_path / "nope"
        assert main(["conform", "fuzz", "--out", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not a directory" in err
        assert not missing.exists()


class TestConformCheck:
    def _write_trace(self, tmp_path, corrupt=False):
        sch = PPAdapter(2, 3)
        idx = sch.random_request_set(8, seed=0)
        store = sch.make_store()
        with record() as rec:
            sch.write(idx, values=idx * 3, store=store, time=1)
            sch.read(idx, store=store, time=2)
        if corrupt:
            for e in rec.events:
                if e.get("name") == "mem.op" and e["op"] == "read":
                    e["value"] += 1  # silently wrong read
                    break
        path = str(tmp_path / ("bad.jsonl" if corrupt else "good.jsonl"))
        rec.write_jsonl(path)
        return path

    def test_clean_trace_passes(self, capsys, tmp_path):
        path = self._write_trace(tmp_path)
        assert main(["conform", "check", path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupt_trace_fails(self, capsys, tmp_path):
        path = self._write_trace(tmp_path, corrupt=True)
        assert main(["conform", "check", path]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "inconsistent" in captured.err

    def test_multiple_traces_one_bad(self, tmp_path):
        good = self._write_trace(tmp_path)
        bad = self._write_trace(tmp_path, corrupt=True)
        assert main(["conform", "check", good, bad]) == 1

    def test_missing_file_is_error(self, tmp_path):
        assert main(["conform", "check", str(tmp_path / "nope.jsonl")]) == 2


class TestConformReport:
    def test_round_trip(self, capsys, tmp_path):
        main(_small_fuzz_args(tmp_path))
        capsys.readouterr()
        assert main(["conform", "report", "--dir", str(tmp_path)]) == 0
        assert "**Overall: PASS**" in capsys.readouterr().out

    def test_failing_stored_report_exits_nonzero(self, capsys, tmp_path):
        main(_small_fuzz_args(tmp_path))
        js = tmp_path / (REPORT_BASENAME + ".json")
        data = json.loads(js.read_text())
        data["rows"][0]["oracle_mismatches"] = 3
        js.write_text(json.dumps(data))
        assert main(["conform", "report", "--dir", str(tmp_path)]) == 1

    def test_missing_report_is_error(self, tmp_path):
        assert main(["conform", "report", "--dir", str(tmp_path)]) == 2
