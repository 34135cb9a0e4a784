"""Tests of the benchmark itself: patching, checks, arguments, exit codes.

Small workloads keep this file fast; the real ones are exercised by
``perfbench/run.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.gf.gf2m as gf2m
from perfbench import run as runner
from perfbench.layers import (
    LAYER_METRICS,
    TARGETS,
    LayerTracer,
    assert_unpatched,
    layer_metrics,
)
from perfbench.reference import INTERPRETER, TABLE_LOOKUP, Reference, scaled
from perfbench.workloads import (
    SERVICE,
    WORKLOADS,
    PramWorkload,
    ServedWorkload,
    repro_counts,
)
from repro.service.loadgen import LoadConfig

ROOT = Path(__file__).resolve().parent.parent

SMALL_SERVED = ServedWorkload(
    name="small-served",
    load=LoadConfig(clients=300, ops_per_client=2, keyspace=128,
                    mix="zipf", get_fraction=0.5, delete_fraction=0.1),
)
SMALL_PRAM = PramWorkload(name="small-pram", n=64, degree=5)


def _originals() -> list:
    return [vars(t.owner)[t.attr] for t in TARGETS]


def test_tracer_restores_every_target_on_exit_and_on_error():
    before = _originals()
    sink = gf2m._OP_SINK
    with pytest.raises(ZeroDivisionError):
        with LayerTracer():
            assert all(
                getattr(vars(t.owner)[t.attr], "__perfbench_span__", False)
                for t in TARGETS
            )
            assert gf2m._OP_SINK is not sink
            raise ZeroDivisionError
    assert _originals() == before
    assert gf2m._OP_SINK is sink
    assert_unpatched()


def test_untraced_pass_runs_unpatched_code():
    with LayerTracer() as tr:
        SMALL_SERVED.run_pass(seed=3)
    recorded = len(tr.spans)
    assert recorded > 0
    p = runner.untraced_pass(SMALL_SERVED, seed=3)
    assert not p.errors
    assert len(tr.spans) == recorded
    # a wrapper left installed is refused before an untraced pass starts
    with LayerTracer():
        with pytest.raises(RuntimeError, match="still wrapped"):
            runner.untraced_pass(SMALL_SERVED, seed=3)
    assert_unpatched()


def test_served_pass_is_correct_and_repeats_its_counts():
    a = SMALL_SERVED.run_pass(seed=5)
    b = SMALL_SERVED.run_pass(seed=5)
    assert not a.errors and a.failed == 0
    assert a.ops == 600
    assert repro_counts(a) == repro_counts(b)
    assert repro_counts(SMALL_SERVED.run_pass(seed=6)) != repro_counts(a)


def test_pram_pass_checks_against_numpy_references():
    p = SMALL_PRAM.run_pass(seed=2)
    assert not p.errors and p.failed == 0
    assert p.latency_samples > 0 and p.ops > 64
    assert repro_counts(p) == repro_counts(SMALL_PRAM.run_pass(seed=2))


def test_times_are_scaled_to_the_reference_speed():
    ref = Reference("fake", lambda: 0, nominal_seconds=0.01)
    # measured while the reference ran 2x slower than nominal: halved
    assert scaled(3.0, ref, 0.02) == pytest.approx(1.5)
    assert runner.median_scaled(
        [1.0, 3.0, 2.0], ref, [0.01, 0.02, 0.01]
    ) == pytest.approx(1.5)
    value, measured = runner.around(ref, lambda: "pass")
    assert value == "pass" and measured > 0
    for real in (INTERPRETER, TABLE_LOOKUP):  # fixed work, same answer
        assert real.work() == real.work()


def test_pram_pass_flags_a_wrong_result():
    pram, (data, successor, ranks) = SMALL_PRAM.build(seed=2)
    sums, got = SMALL_PRAM.kernels(pram, data, successor)
    bad = SMALL_PRAM.result(pram, 1.0, data, sums + 1, got, ranks)
    assert bad.errors and bad.failed == bad.attempted


def test_traced_served_pass_reports_every_layer_metric():
    p, m, layers = runner.traced_pass(SMALL_SERVED, seed=1)
    assert not p.errors
    assert set(m) == set(LAYER_METRICS)
    assert m["scheme.vunrank_per_access"] == 2.0
    assert m["batcher.fill_ratio"] > 0 and m["watchdog.peak_state"] > 0
    assert m["pram.self_us_per_step"] == 0.0
    assert 0.5 < m["trace.coverage"] <= 1.0 + 1e-9
    assert "service.loadgen" in layers
    again = runner.traced_pass(SMALL_SERVED, seed=1)[1]
    for name in runner.DETERMINISTIC_LAYER_METRICS:
        assert again[name] == m[name]


def test_traced_pram_pass_attributes_the_protocol_stack():
    with LayerTracer() as tr:
        p = SMALL_PRAM.run_pass(seed=0)
    m, layers = layer_metrics(tr, p.ops, p.wall, SERVICE.round_capacity)
    assert m["pram.vars_per_step"] > 0 and m["gf.mul_per_var"] > 0
    assert m["kvstore.accesses_per_call"] == 0.0
    assert layers["core.addressing"] > 0 and "pram.algorithms" in layers


def _args(**kw):
    base = dict(workload="serve-zipf-hot", seed=0, seconds=1.0, trace=0,
                out=None)
    base.update(kw)
    return runner.argparse.Namespace(**base)


@pytest.mark.parametrize(
    "kw, msg",
    [
        ({"workload": "nope"}, "unknown workload"),
        ({"seed": -1}, "--seed"),
        ({"seconds": 0}, "--seconds"),
        ({"out": Path("no-such-dir") / "x.json"}, "does not exist"),
    ],
)
def test_bad_arguments_are_refused(kw, msg):
    assert msg in runner.validate(_args(**kw), WORKLOADS)


def test_bad_out_path_fails_before_any_work(tmp_path, capsys):
    out = tmp_path / "missing" / "record.json"
    code = runner.main(["--workload", "pram-kernels", "--seed", "0",
                        "--seconds", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-zipf-hot",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        runner.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
