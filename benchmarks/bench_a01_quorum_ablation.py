"""Ablation A1 -- the quorum rule: why exactly q/2 + 1 copies?

The scheme's central design choice is the majority discipline.  This
ablation runs the identical placement and workloads under three access
rules:

* quorum 1   ("any copy"):   cheap reads but stale data on writes --
  or, if writes also use quorum 1, lost updates;
* quorum q/2+1 (majority):   the paper's choice;
* quorum q+1 ("all copies"): correct without timestamps but write cost
  collapses under copy collisions (the [MV84] failure).

Measured: protocol iterations per rule on uniform and adversarial
traffic, plus a correctness column (can the rule guarantee freshness?).
"""

from _util import once, save_tables, scalar
from repro.analysis.report import Table
from repro.core.protocol import run_access_protocol
from repro.core.scheme import PPScheme
from repro.workloads.adversarial import tight_set_module_ids
from repro.core.graph import MemoryGraph


def run_experiment():
    s = PPScheme(2, 5)
    idx = s.random_request_set(1000, seed=0)
    mods = s.placement(idx)

    g = MemoryGraph(2, 8)
    tight = tight_set_module_ids(g, 4)

    t = Table(
        ["quorum", "uniform 1000 iters", "tight-set Phi", "freshness guaranteed",
         "write-collision safe"],
        title="A1 / quorum ablation (q=2: 3 copies) -- same placement, same MPC",
    )
    rows = {}
    for quorum, fresh, safe in ((1, False, False), (2, True, True), (3, True, False)):
        uni = run_access_protocol(mods, s.N, quorum).total_iterations
        adv = run_access_protocol(tight, g.N, quorum, n_phases=1).max_phase_iterations
        t.add_row([quorum, uni, adv, fresh, safe])
        rows[quorum] = (uni, adv)
    save_tables(
        "a01_quorum_ablation",
        [t],
        notes="Quorum 1 is fastest but cannot guarantee freshness (a reader "
        "may see only a stale copy); quorum q+1 is ~2x slower on the "
        "adversarial set and inherits MV's write collapse; the majority "
        "is the unique point with both guarantees -- at a measured cost "
        "within ~2x of the minimum.",
    )
    return rows


def test_a01_quorum(benchmark):
    rows = once(benchmark, run_experiment, name="a01.experiment")
    scalar("a01.majority_tight_phi", rows[2][1])
    assert rows[1][1] <= rows[2][1] <= rows[3][1]  # monotone in quorum
    assert rows[3][1] <= 3 * rows[2][1]  # and majority is close to any-copy
