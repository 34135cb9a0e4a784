"""Ablation A4 -- the cluster/phase structure.

Section 3 partitions processors into clusters of q+1 and runs q+1
phases, each phase dedicating a full cluster to one variable (one
processor per copy).  The alternative -- every processor chases all
q+1 copies of its own variable at once (1 phase, all variables live) --
saturates modules with more concurrent traffic.

Measured: iterations and total module cycles for phases in {q+1, 1} on
uniform and adversarial traffic.
"""

from _util import once, save_tables, scalar
from repro.analysis.report import Table
from repro.core.graph import MemoryGraph
from repro.core.protocol import run_access_protocol
from repro.core.scheme import PPScheme
from repro.workloads.adversarial import tight_set_module_ids


def run_experiment():
    t = Table(
        ["workload", "phases", "Phi (max/phase)", "total iterations",
         "total module-cycles"],
        title="A4 / clustering ablation -- q+1 phases vs single phase",
    )
    s = PPScheme(2, 7)
    idx = s.random_request_set(s.N, seed=4)
    mods = s.placement(idx)
    g = MemoryGraph(2, 10)
    tight = tight_set_module_ids(g, 5)
    out = {}
    for name, m, N in (("uniform full load (n=7)", mods, s.N),
                       ("tight set (n=10)", tight, g.N)):
        for phases in (3, 1):
            res = run_access_protocol(m, N, 2, n_phases=phases)
            t.add_row([name, phases, res.max_phase_iterations,
                       res.total_iterations, res.mpc_stats.steps])
            out[(name, phases)] = res.total_iterations
    save_tables(
        "a04_clustering_ablation",
        [t],
        notes="Phased execution needs more iterations in total on easy "
        "traffic (it serializes thirds of the batch) but caps the "
        "concurrent live set, which is what the Theorem-6 recurrence "
        "analysis needs; on the adversarial set the single-phase run is "
        "the harder instance, which is why the worst-case experiments "
        "grant the adversary that choice.",
    )
    return out


def test_a04_clustering(benchmark):
    out = once(benchmark, run_experiment, name="a04.experiment")
    scalar("a04.phased_total_iters_uniform",
           out[("uniform full load (n=7)", 3)])
    assert all(v > 0 for v in out.values())
