#!/usr/bin/env python3
"""Bounded-degree networks: what the complete-graph model hides.

The MPC assumes every processor can talk to every module in one step.
Section 1 of the paper defers the "request routing problem" to
bounded-degree implementations; this example runs the same access batch
on the ideal MPC, on a hypercube, and on a 2-D torus, and shows where
the abstraction's constant goes.

Run:  python examples/bounded_degree_network.py
"""

import numpy as np

from repro import PPScheme
from repro.analysis.report import Table
from repro.core.protocol import run_access_protocol
from repro.network import HypercubeTopology, TorusTopology, run_protocol_on_network


def main() -> None:
    s = PPScheme(q=2, n=5)
    idx = s.random_request_set(768, seed=3)
    mods = s.placement(idx)

    ideal = run_access_protocol(mods, s.N, s.majority, n_phases=1)
    hyper = HypercubeTopology.at_least(s.N)
    torus = TorusTopology.at_least(s.N)
    rh = run_protocol_on_network(mods, s.N, s.majority, hyper)
    rt = run_protocol_on_network(mods, s.N, s.majority, torus)

    t = Table(
        ["machine", "degree", "diameter", "iterations", "time (rounds)",
         "overhead vs MPC"],
        title=f"one access batch (768 requests, N = {s.N})",
    )
    t.add_row(["ideal MPC (paper's model)", s.N, 1,
               ideal.max_phase_iterations, ideal.max_phase_iterations, 1.0])
    t.add_row([f"hypercube ({hyper.n_nodes} nodes)", hyper.degree,
               hyper.diameter(), rh.mpc_iterations, rh.network_rounds,
               round(rh.overhead_factor, 1)])
    t.add_row([f"torus ({torus.n_nodes} nodes)", torus.degree,
               torus.diameter(), rt.mpc_iterations, rt.network_rounds,
               round(rt.overhead_factor, 1)])
    t.print()

    print()
    print("The protocol's iteration structure is identical everywhere --")
    print("the memory organization neither knows nor cares about the wires.")
    print("A hypercube pays ~2 log N rounds per iteration (request + grant),")
    print("a degree-4 torus pays its sqrt(N) diameter.  That multiplicative")
    print("factor is exactly the 'request routing problem' the paper's")
    print("Section 1 sets aside, and why its theorems count module cycles.")
    print()
    per = rh.per_iteration_rounds
    print(f"hypercube per-iteration rounds: {per}")
    print(f"log2(N) = {np.log2(s.N):.1f}; request legs averaged "
          f"{rh.request_rounds / rh.mpc_iterations:.1f} rounds, responses "
          f"{rh.response_rounds / rh.mpc_iterations:.1f}.")


if __name__ == "__main__":
    main()
