"""Fixed computations that gauge how fast the host CPU runs right now.

On a shared host the benchmark's CPU runs up to 1.9x slower for
minutes at a time: a neighbour takes part of the core, and the kernel
reports it neither as steal time nor in the process's CPU time, so
every timer reads the slowdown as the program's own.  The runner
therefore times a reference right before and right after each timed
pass and set-up probe, and scales the times measured between by the
reference's nominal time over its measured time (:func:`scaled`): a
slowdown that hits the pass hits the reference too and cancels, while
a change to the program moves the pass alone.

How much a neighbour slows code can depend on what the code does, so
each workload is scaled by a reference that does what its hot path
does (:class:`Reference`); a reference of the wrong kind would turn a
slow stretch into a fake speed-up or slow-down.  In slow stretches the
served workload lost 1.9x where :data:`INTERPRETER` lost 1.85x, and
the PRAM workload 1.8x where :data:`TABLE_LOOKUP` lost 1.7x.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

__all__ = ["INTERPRETER", "TABLE_LOOKUP", "Reference", "scaled"]

_RNG = np.random.default_rng(7)
_SMALL = _RNG.integers(0, 1 << 16, size=256)
_ORDER = _RNG.permutation(256)
#: a GF(2^10)-sized log table with a zero marker, an exp table twice
#: the group order, and two long operand arrays
_LOG = np.where(_RNG.random(1024) < 0.01, -1, _RNG.integers(0, 1023, 1024))
_EXP = _RNG.integers(1, 1024, size=2046)
_LEFT = _RNG.integers(0, 1024, size=8192)
_RIGHT = _RNG.integers(0, 1024, size=8192)


def _interpreter_work() -> int:
    """Dict and int operations in Python, then small-array numpy."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(40_000):
        k = (i * 2654435761) & 1023
        counts[k] = counts.get(k, 0) + i
        acc ^= k
    a = _SMALL.copy()
    for _ in range(800):
        a = (a * 3 + 1) & 0xFFFF
        b = a[_ORDER]
        top = np.bincount(b & 255, minlength=256).max()
        acc += int(np.argsort(b)[0]) + int(top)
    return acc + len(counts)


def _table_lookup_work() -> int:
    """Log/exp table multiplication over long arrays, then a dedup."""
    a, b = _LEFT, _RIGHT
    for _ in range(280):
        la, lb = _LOG[a], _LOG[b]
        out = _EXP[np.where((la < 0) | (lb < 0), 0, la + lb)]
        a, b = b, np.where((a == 0) | (b == 0), 0, out)
    return int(np.unique(b).size)


@dataclass(frozen=True)
class Reference:
    """A fixed computation and its time on an uncontended core."""

    name: str
    work: Callable[[], int]
    #: median time of the work on an uncontended core of the 2-vCPU
    #: Xeon VM the benchmark's bounds were set on
    nominal_seconds: float

    def seconds(self) -> float:
        """Wall seconds of one run of the work, now."""
        t0 = perf_counter()
        self.work()
        return perf_counter() - t0


#: for the served workloads: per-request Python around small arrays
INTERPRETER = Reference("interpreter", _interpreter_work, 0.0140)
#: for the PRAM workload: GF(2^m) table arithmetic over whole steps
TABLE_LOOKUP = Reference("table-lookup", _table_lookup_work, 0.0140)


def scaled(seconds: float, reference: Reference, measured: float) -> float:
    """``seconds`` measured while ``reference`` took ``measured``
    seconds, at the speed where it takes its nominal time."""
    return seconds * reference.nominal_seconds / measured
