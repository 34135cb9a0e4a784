"""The repository benchmark: end-to-end and per-layer cost of its workloads.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from a checkout (no install needed).  ``--trace 0``
measures the end-to-end metrics with every ``repro.obs`` sink off;
``--trace 1`` wraps the layers' public functions from this package
(:mod:`perfbench.layers`) and attributes wall time to them.
``BENCHMARK.json`` at the repository root lists the workloads and
metrics.
"""
