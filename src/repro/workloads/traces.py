"""Trace-driven workloads: multi-batch request streams with structure.

Real parallel programs do not issue independent uniform batches; they
re-touch working sets (temporal locality) and skew toward popular data
(zipfian).  This module synthesizes such traces -- sequences of request
batches -- and replays them through any scheme, producing the time
series the locality experiments (E16) analyze.

Duplicates inside one machine step are combined before the protocol
runs (the same request-combining convention as the PRAM layer), so a
skewed batch yields *fewer distinct* requests: skew shifts cost from
the memory-organization problem to combining, which is visible in the
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["zipfian_batch", "locality_trace", "TraceReplay", "replay_trace"]


def zipfian_batch(
    M: int, count: int, skew: float, rng: np.random.Generator
) -> np.ndarray:
    """``count`` raw (possibly duplicate) requests with zipf-like
    popularity over ``[0, M)``; ``skew = 0`` is uniform, larger is
    hotter.

    Implemented by inverse-power transform of uniforms (bounded-support
    zipf without scipy's open-ended tail).
    """
    if not 0 <= skew:
        raise ValueError("skew must be >= 0")
    u = rng.random(count)
    # bounded power transform: exponent 1 at skew=0 (uniform), growing
    # smoothly and capped at 20 for skew >= 0.95 -- monotone in skew
    expo = 1.0 / min(1.0, max(0.05, 1.0 - skew))
    ranks = (M * u**expo).astype(np.int64)
    ranks = np.clip(ranks, 0, M - 1)
    # scatter ranks over the index space so "popular" is not "contiguous"
    return (ranks * np.int64(2654435761) + 7) % M


def locality_trace(
    M: int,
    batches: int,
    batch_size: int,
    working_set: int,
    churn: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """A trace of ``batches`` raw batches drawn from a drifting working
    set: each step, a ``churn`` fraction of the working set is replaced,
    and the batch samples (with duplicates) from the current set."""
    if not 0 <= churn <= 1:
        raise ValueError("churn must be in [0, 1]")
    if working_set > M:
        raise ValueError("working set larger than memory")
    ws = rng.choice(M, working_set, replace=False)
    out = []
    for _ in range(batches):
        replace = int(round(churn * working_set))
        if replace:
            fresh = rng.choice(M, replace, replace=False)
            ws = np.concatenate([ws[replace:], fresh])
        out.append(rng.choice(ws, batch_size, replace=True))
    return out


@dataclass
class TraceReplay:
    """Result of replaying a trace against one scheme."""

    scheme_name: str
    batches: int
    raw_requests: int
    distinct_requests: int
    total_iterations: int
    per_batch_iterations: list[int] = field(default_factory=list)

    @property
    def combining_ratio(self) -> float:
        """distinct / raw -- how much request combining absorbed."""
        if self.raw_requests == 0:
            return 1.0
        return self.distinct_requests / self.raw_requests

    @property
    def mean_iterations(self) -> float:
        """Average protocol iterations per batch."""
        if self.batches == 0:
            return 0.0
        return self.total_iterations / self.batches


def replay_trace(scheme, trace: list[np.ndarray]) -> TraceReplay:
    """Run every batch of a trace (count mode) through the scheme,
    combining duplicates per batch, and collect the cost series."""
    total_raw = 0
    total_distinct = 0
    total_iters = 0
    per_batch = []
    for batch in trace:
        batch = np.asarray(batch, dtype=np.int64)
        total_raw += batch.size
        distinct = np.unique(batch)
        total_distinct += distinct.size
        res = scheme.access(distinct, op="count")
        per_batch.append(res.total_iterations)
        total_iters += res.total_iterations
    return TraceReplay(
        scheme_name=getattr(scheme, "name", type(scheme).__name__),
        batches=len(trace),
        raw_requests=total_raw,
        distinct_requests=total_distinct,
        total_iterations=total_iters,
        per_batch_iterations=per_batch,
    )
