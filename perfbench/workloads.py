"""The benchmark workloads: seeded inputs, one timed pass, checks.

A *pass* runs one workload once on inputs derived only from the seed,
on a freshly built service or PRAM, and checks its outputs.  A run of
the benchmark repeats passes on the same seed, so every count a pass
reports (MPC iterations, requests) must repeat exactly from pass to
pass; :func:`repro_counts` names the ones the runner compares.

Served workloads drive :func:`repro.service.loadgen.run_load`, the
closed-loop fleet: a client submits its next request only after the
previous one completed.  The PRAM workload runs
:func:`repro.pram.algorithms.prefix_sums` and
:func:`~repro.pram.algorithms.list_ranking` through
``PRAM(PPAdapter(2, 7))`` -- scheme, protocol and MPC with no service,
bus, watchdog or kvstore.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from perfbench.reference import INTERPRETER, TABLE_LOOKUP, Reference
from repro.pram.algorithms import list_ranking, prefix_sums
from repro.pram.machine import PRAM
from repro.schemes.pp_adapter import PPAdapter
from repro.service.batcher import ServiceConfig
from repro.service.loadgen import LoadConfig, LoadReport, run_load

__all__ = ["PassResult", "WORKLOADS", "repro_counts"]

#: The served fleet: 2 shards of ``PPAdapter(2, 5)`` (2 x 2728 table
#: slots) with the watchdog on, the served default.  1024 closed-loop
#: clients outnumber the 256-request round four times over, so every
#: round is full and a request waits about four rounds.
SERVICE = ServiceConfig(
    n_shards=2, q=2, n=5, round_capacity=256, max_pending=1024
)


@dataclass
class PassResult:
    """What one pass did, measured from outside the program."""

    #: completed requests (served) or PRAM processor memory requests
    ops: int
    #: requests attempted, counting each retry of a lost request
    attempted: int
    #: attempted requests that were lost, refused or never finished
    failed: int
    #: wall seconds from the first round or step to the last
    wall: float
    #: per-request (served) or per-step (PRAM) wall latency, seconds:
    #: the median and the tail percentile named by ``tail_pct``
    latency_p50: float
    latency_tail: float
    tail_pct: int
    latency_samples: int
    #: simulated MPC iterations (the paper's cost)
    mpc_iterations: int
    #: correctness failures found by the checks; empty when correct
    errors: list[str] = field(default_factory=list)


def repro_counts(p: PassResult) -> tuple[int, int, int]:
    """Counts that depend only on the seed: equal on every pass."""
    return p.ops, p.attempted, p.mpc_iterations


@dataclass(frozen=True)
class ServedWorkload:
    """Closed loop through ``run_load`` on the :data:`SERVICE` fleet."""

    name: str
    load: LoadConfig
    #: the CPU-speed gauge for this workload's times (per-request Python
    #: around small arrays, as in the batcher, watchdog and kvstore)
    reference: Reference = INTERPRETER

    def run_pass(self, seed: int) -> PassResult:
        return served_result(run_load(replace(self.load, seed=seed), SERVICE))


def served_result(report: LoadReport) -> PassResult:
    """Fold a :class:`LoadReport` into a checked :class:`PassResult`."""
    attempted = report.total_requests + report.retries
    ok = report.completed - report.lost
    errors = []
    if report.violations:
        errors.append(f"{report.violations} watchdog violation(s)")
    if report.events_dropped:
        errors.append(f"{report.events_dropped} dropped watchdog event(s)")
    if report.unfinished_clients:
        errors.append(f"{report.unfinished_clients} unfinished client(s)")
    if report.lost:
        errors.append(f"{report.lost} lost request(s) on a fault-free run")
    if ok != report.total_requests:
        errors.append(
            f"{ok} of {report.total_requests} requests completed"
        )
    lat = report.latency
    return PassResult(
        ops=ok,
        attempted=attempted,
        failed=attempted if errors else attempted - ok,
        wall=report.elapsed,
        latency_p50=lat.get("p50", float("nan")),
        latency_tail=lat.get("p99", float("nan")),
        tail_pct=99,
        latency_samples=lat.get("count", 0),
        mpc_iterations=report.stats["store"]["mpc_iterations"],
        errors=errors,
    )


class StepClockPRAM(PRAM):
    """A PRAM whose caller times each step and counts processor requests.

    The PRAM's steps are its requests' round trips, so a step's wall
    time is the latency of every processor request in it.  This is the
    client side of the machine (a subclass the benchmark owns), not a
    patch: :class:`PRAM` itself runs unmodified.
    """

    def __init__(self, scheme: PPAdapter):
        super().__init__(scheme)
        self.requests = 0
        self.step_seconds: list[float] = []

    def parallel_read(self, addresses: np.ndarray) -> np.ndarray:
        t0 = perf_counter()
        out = super().parallel_read(addresses)
        self.step_seconds.append(perf_counter() - t0)
        self.requests += int(np.size(addresses))
        return out

    def parallel_write(self, addresses: np.ndarray, values: np.ndarray) -> None:
        t0 = perf_counter()
        super().parallel_write(addresses, values)
        self.step_seconds.append(perf_counter() - t0)
        self.requests += int(np.size(addresses))


def pram_inputs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded prefix-sum data, a random linked list, and its ranks."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 1000, size=n, dtype=np.int64)
    order = rng.permutation(n).astype(np.int64)
    successor = np.empty(n, dtype=np.int64)
    successor[order[:-1]] = order[1:]
    successor[order[-1]] = order[-1]
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n - 1, -1, -1, dtype=np.int64)
    return data, successor, ranks


@dataclass(frozen=True)
class PramWorkload:
    """``prefix_sums`` then ``list_ranking`` on ``n`` elements."""

    name: str
    n: int = 4096
    q: int = 2
    degree: int = 7
    #: the CPU-speed gauge for this workload's times (GF table lookups
    #: over whole steps are most of a pass)
    reference: Reference = TABLE_LOOKUP

    def build(self, seed: int) -> tuple[StepClockPRAM, tuple]:
        """Set-up: the machine and the seeded inputs."""
        pram = StepClockPRAM(PPAdapter(self.q, self.degree))
        return pram, pram_inputs(self.n, seed)

    def kernels(self, pram: PRAM, data: np.ndarray, successor: np.ndarray):
        """The measured program: both kernels, disjoint memory ranges."""
        sums = prefix_sums(pram, data, base=0)
        ranks = list_ranking(pram, successor, base=self.n)
        return sums, ranks

    def run_pass(self, seed: int) -> PassResult:
        pram, (data, successor, want_ranks) = self.build(seed)
        t0 = perf_counter()
        sums, ranks = self.kernels(pram, data, successor)
        wall = perf_counter() - t0
        return self.result(pram, wall, data, sums, ranks, want_ranks)

    @staticmethod
    def result(pram: StepClockPRAM, wall: float, data, sums, ranks,
               want_ranks) -> PassResult:
        errors = []
        if not np.array_equal(sums, np.cumsum(data)):
            errors.append("prefix_sums differs from np.cumsum")
        if not np.array_equal(ranks, want_ranks):
            errors.append("list_ranking differs from the reference ranks")
        steps = np.asarray(pram.step_seconds)
        # 113 steps a pass leave ten samples beyond p90, one beyond p99
        p50, tail = np.percentile(steps, [50.0, 90.0])
        return PassResult(
            ops=pram.requests,
            attempted=pram.requests,
            failed=pram.requests if errors else 0,
            wall=wall,
            latency_p50=float(p50),
            latency_tail=float(tail),
            tail_pct=90,
            latency_samples=int(steps.size),
            mpc_iterations=pram.mpc_iterations,
            errors=errors,
        )


#: Why each workload is in the benchmark, and which layers it should
#: move, is recorded with its name in ``BENCHMARK.json``.
WORKLOADS: dict[str, ServedWorkload | PramWorkload] = {
    w.name: w
    for w in (
        ServedWorkload(
            name="serve-zipf-hot",
            load=LoadConfig(
                clients=1024, ops_per_client=4, keyspace=512, mix="zipf",
                zipf_s=1.2, get_fraction=0.5, delete_fraction=0.02,
            ),
        ),
        PramWorkload(name="pram-kernels"),
    )
}
