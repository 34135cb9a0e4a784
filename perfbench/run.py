#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload serve-zipf-hot --seed 0 \\
        --seconds 20 --trace 0 [--out record.json]

A run builds the workload's inputs from ``--seed``, runs one warm-up
pass, then repeats timed passes on the same inputs until ``--seconds``
have passed.  Every pass checks its outputs, and every seed-determined
count must repeat exactly from pass to pass.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates traced and untraced passes
and reports the per-layer metrics (medians over traced passes).

End-to-end timings are medians over the timed passes of times scaled
to a nominal CPU speed: the workload's reference computation is timed
right before and after each pass and each set-up probe, and the times
measured between are scaled by how much slower than nominal it ran
(``perfbench/reference.py``).  On a shared host the CPU runs up to 1.9x
slower for minutes at a time; unscaled medians measure the neighbours.

The table goes to stdout, followed by one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in turn, a table and a line each.  ``--out`` also writes the
full records, keyed by workload, with sample counts, per-pass values
and the environment.
Exit status: 0 correct, 1 a check failed (or the program could not be
imported), 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"

#: end-to-end metric name -> unit, in report order
END_TO_END: dict[str, str] = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "mpc_iters_per_op": "iters",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: set-up probes per run, spread over its timed passes (setup_s is
#: their scaled median)
SETUP_PROBES = 7
#: timed passes per run at least, whatever ``--seconds`` says
MIN_PASSES = 3
#: traced passes per ``--trace 1`` run at least (counts are compared)
MIN_TRACED = 2
#: per-layer counts fixed by the seed: equal on every traced pass
DETERMINISTIC_LAYER_METRICS = (
    "scheme.vunrank_per_access",
    "gf.mul_per_var",
    "gf.dlog_per_var",
    "obs.events_per_op",
    "kvstore.accesses_per_call",
    "protocol.iters_per_access",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload of BENCHMARK.json, or 'all' for each "
                   "in turn (one result line per workload)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="also write the full JSON record here")
    return p.parse_args(argv)


def validate(args: argparse.Namespace, workloads: dict) -> str | None:
    """The first problem with the arguments, or None; runs before work."""
    if args.workload != "all" and args.workload not in workloads:
        return (f"unknown workload {args.workload!r}; one of "
                f"{', '.join(workloads)}, or all")
    if args.seed < 0:
        return "--seed must be >= 0"
    if not 0 < args.seconds <= 60:
        return "--seconds must be in (0, 60]"
    if args.out is not None:
        parent = args.out.resolve().parent
        if args.out.is_dir():
            return f"--out {args.out} is a directory"
        if not parent.is_dir():
            return f"--out directory {parent} does not exist"
        if not os.access(parent, os.W_OK):
            return f"--out directory {parent} is not writable"
    return None


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np

    from repro.core.engine import ENGINE_ENV, resolve_engine

    return {
        "seed": seed,
        "engine": resolve_engine(None),
        "REPRO_ENGINE": os.environ.get(ENGINE_ENV),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
    }


def git_sha(root: Path) -> str | None:
    """HEAD's commit id read from ``.git``, or None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def probe_setup(name: str, seed: int) -> float:
    """Seconds from a new process's start to its first round."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(PROBE), name, str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        seconds = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return seconds


def around(reference, measure):
    """``measure()``, and ``reference``'s mean time before and after it."""
    before = reference.seconds()
    value = measure()
    return value, (before + reference.seconds()) / 2


def median_scaled(seconds: list[float], reference,
                  measured: list[float]) -> float:
    """Median of times each scaled by the reference time around it."""
    from perfbench.reference import scaled

    return statistics.median(
        scaled(s, reference, m) for s, m in zip(seconds, measured)
    )


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_pass(workload, seed: int):
    from perfbench.layers import assert_unpatched

    assert_unpatched()
    return workload.run_pass(seed)


def traced_pass(workload, seed: int):
    """One pass under the layer tracer: (pass, metrics, self s by layer)."""
    from perfbench.layers import LayerTracer, layer_metrics
    from perfbench.workloads import SERVICE
    from repro.service.testing import AdmissibleOracle

    with LayerTracer() as tr:
        p = workload.run_pass(seed)
    m, layer_self = layer_metrics(tr, p.ops, p.wall, SERVICE.round_capacity)
    if tr.round_results:
        oracle = AdmissibleOracle()
        for res in tr.round_results:
            oracle.apply_round(res)
        if oracle.mismatches:
            p.errors.append(
                f"{len(oracle.mismatches)} admissible-oracle mismatch(es), "
                f"first {oracle.mismatches[0]!r}"
            )
            p.failed = p.attempted
    return p, m, layer_self


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one run, folded into metrics and checks."""
    from perfbench.reference import INTERPRETER, scaled

    errors: list[str] = []
    setup: list[float] = []  # scaled seconds, one per probe
    probes = 0 if trace else SETUP_PROBES
    passes = [untraced_pass(workload, seed)]  # warm-up: checked, not timed
    timed, traced = [], []
    timed_refs: list[float] = []  # reference seconds around each timed pass

    def probe():
        # imports and scheme build are interpreter-bound on every workload
        t, ref = around(INTERPRETER, lambda: probe_setup(workload.name, seed))
        setup.append(scaled(t, INTERPRETER, ref))

    t_start = perf_counter()
    t_end = t_start + seconds
    while (perf_counter() < t_end or len(timed) < MIN_PASSES
           or (trace and len(traced) < MIN_TRACED)):
        # probe set-up at even times through the run, not all at once
        if (len(setup) < probes
                and perf_counter() >= t_start + len(setup) * seconds / probes):
            probe()
        if trace:
            traced.append(traced_pass(workload, seed))
            passes.append(traced[-1][0])
        p, ref = around(workload.reference,
                        lambda: untraced_pass(workload, seed))
        timed.append(p)
        timed_refs.append(ref)
        passes.append(p)
    while len(setup) < probes:
        probe()
    for p in passes:
        errors.extend(p.errors)
    from perfbench.workloads import repro_counts

    if len({repro_counts(p) for p in passes}) != 1:
        errors.append(
            "seed-determined counts (ops, attempted, mpc iterations) "
            f"differ across passes: {sorted({repro_counts(p) for p in passes})}"
        )
    rec = {
        "passes": len(timed),
        "traced_passes": len(traced),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "reference_s": timed_refs,
        "pass_values": [
            {"ops": p.ops, "wall_s": p.wall, "latency_p50_s": p.latency_p50,
             "latency_tail_s": p.latency_tail,
             "mpc_iterations": p.mpc_iterations}
            for p in passes
        ],
    }
    ops = timed[0].ops
    if trace:
        rec["metrics"], rec["layers"] = fold_layers(traced, timed, errors)
    else:
        ref = workload.reference
        n = f"{ref.name}-scaled median of {len(timed)} passes"
        rec["metrics"] = {
            "ops_per_s": (
                ops / median_scaled([p.wall for p in timed], ref, timed_refs),
                f"{n} x {ops} requests"),
            "latency_p50_ms": (
                1e3 * median_scaled([p.latency_p50 for p in timed], ref,
                                    timed_refs),
                f"{n} x {timed[0].latency_samples} samples"),
            "latency_tail_ms": (
                1e3 * median_scaled([p.latency_tail for p in timed], ref,
                                    timed_refs),
                f"p{timed[0].tail_pct}, {n} x "
                f"{timed[0].latency_samples} samples"),
            "mpc_iters_per_op": (timed[0].mpc_iterations / ops,
                                 f"{ops} requests (exact)"),
            "setup_s": (statistics.median(setup),
                        f"{INTERPRETER.name}-scaled median of {len(setup)} "
                        "processes"),
            "peak_rss_mb": (peak_rss_mb(), "1 process"),
        }
    rec["errors"] = errors
    return rec


def fold_layers(traced: list, timed: list, errors: list[str]):
    """Median per-layer metrics over traced passes; checks counts."""
    from perfbench.layers import LAYER_METRICS

    per_pass = [m for _, m, _ in traced]
    for name in DETERMINISTIC_LAYER_METRICS:
        values = {m[name] for m in per_pass}
        if len(values) != 1:
            errors.append(f"{name} differs across traced passes: "
                          f"{sorted(values)}")
    n = f"median of {len(traced)} traced passes"
    out = {
        name: (statistics.median(m[name] for m in per_pass), n)
        for name in LAYER_METRICS
    }
    untraced = statistics.median(p.wall for p in timed)
    traced_wall = statistics.median(p.wall for p, _, _ in traced)
    out["trace.overhead_frac"] = (
        traced_wall / untraced - 1.0,
        f"{len(traced)} traced vs {len(timed)} untraced passes",
    )
    layers = {}
    for layer in traced[0][2]:
        layers[layer] = statistics.median(
            s[layer] / p.wall for p, _, s in traced
        )
    return out, layers


def print_report(name: str, args: argparse.Namespace, env: dict,
                 rec: dict) -> None:
    from perfbench.layers import LAYER_METRICS

    units = LAYER_METRICS if args.trace else END_TO_END
    print(f"perfbench {name}  seed={args.seed}  trace={args.trace}  "
          f"engine={env['engine']}  passes={rec['passes']} "
          f"(+1 warm-up, {rec['traced_passes']} traced)")
    for metric, (value, samples) in rec["metrics"].items():
        print(f"  {metric:30s} {value:14.4f} {units[metric]:6s} {samples}")
    if args.trace:
        print("  self time by layer (share of traced wall, median):")
        for layer, share in sorted(rec["layers"].items(),
                                   key=lambda kv: -kv[1]):
            note = ""
            if layer in ("service.loadgen", "pram.algorithms"):
                note = "  <- unattributed: outside every span"
            elif share == 0.0:
                note = "  (not reached on this workload)"
            print(f"    {layer:24s} {100 * share:6.2f}%{note}")
    for e in rec["errors"]:
        print(f"  FAILED: {e}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench.layers import LAYER_METRICS
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program ({exc}); run from a "
              "checkout of the repository", file=sys.stderr)
        return 1
    problem = validate(args, WORKLOADS)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    units = {**END_TO_END, **LAYER_METRICS}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records, all_correct = {}, True
    for name in names:
        rec = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_report(name, args, env, rec)
        correct = not rec["errors"]
        all_correct = all_correct and correct
        records[name] = {
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "correct": correct, **rec,
            "metrics": {
                k: {"value": v, "unit": units[k], "samples": s}
                for k, (v, s) in rec["metrics"].items()
            },
        }
        print(json.dumps({
            "correct": correct,
            "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": {
                k: {"value": v, "unit": units[k]}
                for k, (v, _) in rec["metrics"].items()
            },
        }), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(records, indent=2) + "\n")
    return 0 if all_correct else 1

if __name__ == "__main__":
    raise SystemExit(main())
