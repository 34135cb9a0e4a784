"""Adversarial request-set constructions.

Worst cases are the whole point of a deterministic scheme: the paper's
guarantees are worst-case, the baselines' failures are worst-case.  This
module builds, per scheme:

* PP graph: low-expansion request sets -- the variables of one module's
  neighbourhood (congestion ``q^{n-1}`` on that module before dispersal)
  and, for composite n, the subgroup-tight sets of Theorem 4's
  optimality remark, optionally translated and unioned to scale;
* the generic Theorem-7 adversary: request variables whose copies all
  lie inside a small module set B, forcing time >= |S| * quorum / |B|;
* plus re-exports of the per-scheme attacks defined on
  :class:`SingleCopyScheme` and :class:`MehlhornVishkinScheme`.
"""

from __future__ import annotations

import numpy as np

from repro.core.expansion import subgroup_tight_set
from repro.core.scheme import PPScheme
from repro.pgl.matrix import pgl2_mul

__all__ = [
    "pp_module_neighborhood_set",
    "pp_tight_request_set",
    "concentrated_set_for",
    "theorem7_bound",
]


def pp_module_neighborhood_set(
    scheme: PPScheme, count: int, seed_modules: list[int] | None = None
) -> np.ndarray:
    """Variables drawn from full module neighbourhoods ``Gamma(u)``.

    Each seeded module receives ``q^{n-1}`` of the requests' copies, the
    densest congestion a request set can put on one module; the protocol
    must disperse via the other copies (exactly the scenario Theorems
    4/5 govern).  Returns ``count`` distinct variable indices.
    """
    graph = scheme.graph
    auto = seed_modules is None
    if auto:
        # neighbourhoods overlap, so keep consuming modules until filled
        seed_modules = range(graph.N)
    out: list[int] = []
    seen: set[int] = set()
    for u in seed_modules:
        for mat in graph.gamma_module(u):
            idx = scheme.addressing.rank(mat)
            if idx not in seen:
                seen.add(idx)
                out.append(idx)
                if len(out) == count:
                    return np.array(out, dtype=np.int64)
    raise ValueError(
        f"seed modules provided only {len(out)} distinct variables, need {count}"
    )


def pp_tight_request_set(
    scheme: PPScheme, d: int, translates: int = 1, seed: int = 0
) -> np.ndarray:
    """Theorem-4 tightness witnesses as request sets: the variables of
    the embedded ``PGL2(q^d)`` (d a proper divisor of n), unioned over
    ``translates`` random left-translates (left translation is a graph
    automorphism, so each translate is equally tight).
    """
    graph = scheme.graph
    base = subgroup_tight_set(graph, d)
    rng = np.random.default_rng(seed)
    F = graph.F
    out: set[int] = set()
    gs: list[tuple[int, int, int, int]] = [(1, 0, 0, 1)]
    while len(gs) < translates:
        a, b, c, dd = (int(x) for x in rng.integers(0, F.order, size=4))
        if F.add(F.mul(a, dd), F.mul(b, c)) != 0:
            gs.append((a, b, c, dd))
    for g in gs:
        for mat in base:
            out.add(scheme.addressing.rank(pgl2_mul(F, g, mat)))
    return np.fromiter(sorted(out), dtype=np.int64)


def concentrated_set_for(scheme, count: int, **kw) -> tuple[np.ndarray, int]:
    """Dispatch a Theorem-7-style concentrated request set for any of the
    repo's schemes.  Returns ``(indices, |B|)`` where B is the module
    set containing every copy of every returned variable.
    """
    from repro.schemes.mehlhorn_vishkin import MehlhornVishkinScheme
    from repro.schemes.single_copy import SingleCopyScheme

    if isinstance(scheme, SingleCopyScheme):
        idx = scheme.adversarial_request_set(count, **kw)
        return idx, 1
    if isinstance(scheme, MehlhornVishkinScheme):
        # grid interpolation: beta values per copy such that beta^c >= count
        beta = 1
        while True:
            grid = [np.arange(beta)] * scheme.c
            idx = scheme.interpolate_variables(grid)
            if idx.shape[0] >= count:
                return idx[:count], beta * scheme.c
            beta += 1
            if beta > scheme.P:  # pragma: no cover
                raise ValueError("cannot build concentrated set")
    if isinstance(scheme, PPScheme):
        idx = pp_module_neighborhood_set(scheme, count)
        mods = np.unique(scheme.placement(idx))
        return idx, int(mods.size)
    from repro.schemes.upfal_wigderson import UpfalWigdersonScheme

    if isinstance(scheme, UpfalWigdersonScheme):
        # Against a random graph the adversary can only search: take the
        # most-loaded modules and grow B until >= count variables have all
        # their copies inside.  That B stays large is exactly UW's w.h.p.
        # guarantee -- this construction is *supposed* to be weak.
        cap = min(scheme.M, 200_000)
        pl = scheme.placement(np.arange(cap, dtype=np.int64))
        loads = np.bincount(pl.ravel(), minlength=scheme.N)
        order = np.argsort(-loads)
        in_b = np.zeros(scheme.N, dtype=bool)
        for b in range(1, scheme.N + 1):
            in_b[order[b - 1]] = True
            inside = in_b[pl].all(axis=1)
            if int(inside.sum()) >= count:
                return np.nonzero(inside)[0][:count].astype(np.int64), b
        raise ValueError("could not concentrate the requested count")
    raise TypeError(f"no concentrated-set construction for {type(scheme).__name__}")


def theorem7_bound(M: int, N: int, r: int) -> float:
    """Theorem 7's worst-case access-time lower bound ``(M/N)^{1/r}``
    for exactly-r-copy schemes (growth term, no constant)."""
    return (M / N) ** (1.0 / r)


def phase_align(
    hot: np.ndarray, fill: np.ndarray, copies: int, phase: int = 0
) -> np.ndarray:
    """Order a request array so every ``hot`` variable lands in the same
    protocol phase.

    On a real MPC the adversary chooses *which processor* requests which
    variable, hence also the cluster/phase assignment; the protocol
    assigns position ``p`` to phase ``p mod copies``.  The hot set is
    interleaved at positions ``=== phase (mod copies)``, padded with
    ``fill`` (which must be disjoint from ``hot`` and large enough:
    ``len(fill) >= (copies - 1) * len(hot)``).
    """
    hot = np.asarray(hot, dtype=np.int64)
    fill = np.asarray(fill, dtype=np.int64)
    if np.intersect1d(hot, fill).size:
        raise ValueError("hot and fill sets must be disjoint")
    need_fill = (copies - 1) * hot.shape[0]
    if fill.shape[0] < need_fill:
        raise ValueError(f"need at least {need_fill} fill variables")
    total = copies * hot.shape[0]
    out = np.empty(total, dtype=np.int64)
    mask = np.arange(total) % copies == phase
    out[mask] = hot
    out[~mask] = fill[:need_fill]
    return out


def tight_set_module_ids(graph, d: int) -> np.ndarray:
    """``(|S|, q+1)`` module ids of the Theorem-4 tight set of the
    (q, n) graph for divisor ``d`` -- bypasses the addressing layer so
    it works at any n (the count-only protocol needs nothing else)."""
    mats = subgroup_tight_set(graph, d)
    arr = np.array(mats, dtype=np.int64)
    return graph.vgamma_variables((arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]))
