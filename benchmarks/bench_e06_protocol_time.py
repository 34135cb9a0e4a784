"""E6 -- Theorems 6 and 1: protocol time.

Paper claims: Phi in O(N^{1/3} log* N) iterations per phase for N
requests, and total time O((N')^{1/3} log* N' + log N) for N' <= N
requests (q constant).

Regenerated here:
  (a) Phi vs N at full load, random workloads, q=2, n = 3..9;
  (b) Phi vs N' sweep below N (the (N')^{1/3} term) on n=7;
  (c) the worst-case series: Phi vs |S| on the tight-set family with a
      fitted exponent (the paper's N^{1/3} shape);
  (d) modeled total steps including the O(log N) addressing term.
"""

import numpy as np

from _util import once, recorder, save_tables, scalar, timed
from repro.analysis.fitting import fit_power_law
from repro.analysis.report import Table
from repro.core.bounds import phi_bound
from repro.core.graph import MemoryGraph
from repro.core.protocol import run_access_protocol
from repro.core.scheme import PPScheme
from repro.workloads.adversarial import tight_set_module_ids


def run_experiment():
    # (a) full random load across n
    t1 = Table(
        ["n", "N", "N'", "Phi", "bound shape N^(1/3) log* N", "total iters",
         "modeled steps"],
        title="E6a / Theorem 6 -- full-load random workloads (q=2)",
    )
    for n in (3, 5, 7, 9, 11):
        s = PPScheme(2, n)
        # n = 11: N = 4.2M, M = 1.4G -- cap the batch at one million
        n_req = min(s.N, s.M, 1_000_000)
        idx = s.random_request_set(n_req, seed=0)
        res = s.access(idx, op="count")
        t1.add_row([n, s.N, n_req, res.max_phase_iterations,
                    round(phi_bound(s.N, 2), 1), res.total_iterations,
                    res.modeled_steps(s.N)])
        assert res.max_phase_iterations <= 4 * phi_bound(s.N, 2)

    # (b) N' sweep below N (n = 7)
    s7 = PPScheme(2, 7)
    t2 = Table(
        ["N'", "Phi", "bound shape", "modeled steps", "log2 N term"],
        title="E6b / Theorem 1 -- partial loads N' <= N (q=2, n=7, N=16383)",
    )
    for n_prime in (16, 64, 256, 1024, 4096, 16383):
        idx = s7.random_request_set(n_prime, seed=1)
        res = s7.access(idx, op="count")
        t2.add_row([n_prime, res.max_phase_iterations,
                    round(phi_bound(n_prime, 2), 1),
                    res.modeled_steps(s7.N), 14])

    # (c) adversarial tight-set series (single phase = worst clustering)
    t3 = Table(
        ["n", "d", "|S| (=R_0)", "Phi measured", "|S|^(1/3)", "bound shape"],
        title="E6c -- worst-case series: tight sets, all in one phase",
    )
    sizes, phis = [], []
    for n, d in [(4, 2), (6, 3), (8, 4), (10, 5), (12, 6)]:
        g = MemoryGraph(2, n)
        mods = tight_set_module_ids(g, d)
        res = run_access_protocol(mods, g.N, g.majority, n_phases=1)
        S = mods.shape[0]
        t3.add_row([n, d, S, res.max_phase_iterations, round(S ** (1 / 3), 1),
                    round(phi_bound(S, 2), 1)])
        sizes.append(S)
        phis.append(res.max_phase_iterations)
        assert res.max_phase_iterations <= 4 * phi_bound(S, 2)
    alpha, _ = fit_power_law(sizes, phis)

    save_tables(
        "e06_protocol_time",
        [t1, t2, t3],
        notes=f"Fitted worst-case exponent: Phi ~ |S|^{alpha:.3f} (paper: 1/3 "
        f"up to log*).  Random loads sit far below the bound -- the "
        f"N^{{1/3}} behaviour is adversarial, exactly as the analysis "
        f"predicts.  All measurements respect the Theorem-6 shape with "
        f"constant <= 4.",
    )
    return alpha


def test_e06_theorem6_shape(benchmark):
    alpha = once(benchmark, run_experiment, name="e06.experiment")
    scalar("e06.alpha_worst_case", alpha)
    assert 0.2 < alpha < 0.45


def test_e06_full_load_n7_speed(benchmark, scheme_2_7):
    idx = scheme_2_7.random_request_set(scheme_2_7.N, seed=3)
    mods = scheme_2_7.placement(idx)
    timed(
        benchmark, "kernels.protocol_full_n7",
        lambda: run_access_protocol(mods, scheme_2_7.N, scheme_2_7.majority),
    )


def test_e06_engine_speedup(benchmark):
    """Vector vs scalar engine on the E6a full load (q=2, n=9).

    Both engines run the identical protocol (the differential suite
    pins the outputs op-for-op); the recorded ratio is the headline
    payoff of the batch engine on this experiment's workload.  Metrics
    collection is paused around the measurement: obs emission is
    engine-independent and budgeted by its own test, and its per-step
    cost would otherwise mask the kernel-time difference.
    """
    from repro import obs

    s9 = PPScheme(2, 9)
    idx = s9.random_request_set(s9.N, seed=3)
    mods = s9.placement(idx)
    obs.disable_metrics()
    try:
        vec = timed(
            benchmark, "e06.protocol_full_n9_vector",
            lambda: run_access_protocol(
                mods, s9.N, s9.majority, engine="vector"
            ),
        )
        # the benchmark fixture is single-use; the scalar leg goes
        # straight through the session recorder (same clock + summary)
        sca = recorder().measure(
            "e06.protocol_full_n9_scalar",
            lambda: run_access_protocol(
                mods, s9.N, s9.majority, engine="scalar"
            ),
            repeats=3,
        )
    finally:
        obs.enable_metrics()
    speedup = sca["median"] / vec["median"]
    scalar("e06.engine_speedup", speedup)
    assert speedup >= 5.0
