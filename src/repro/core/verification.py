"""Self-verification of a scheme instance.

``verify_instance(q, n)`` runs the structural invariants a downstream
user should check before trusting a new parameterization on their
machine: Fact-1 counts, Lemma-1/2 duality, Theorem-2 pair intersections,
addressing round-trips, placement injectivity, and a read-your-writes
probe.  Levels trade coverage for time:

* ``quick``    -- sampled checks only (seconds at any n);
* ``standard`` -- adds exhaustive addressing round-trip when M is small;
* ``full``     -- adds definition-level edge enumeration (q^{3n} work;
  refuses when infeasible).

Exposed on the CLI as ``python -m repro verify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bounds import expansion_lower_bound, fact1_counts
from repro.core.scheme import PPScheme

__all__ = ["VerificationReport", "verify_instance"]

_LEVELS = ("quick", "standard", "full")


@dataclass
class VerificationReport:
    """Outcome of one verification run."""

    q: int
    n: int
    level: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        """Append one check result."""
        self.checks.append((name, bool(ok), detail))

    @property
    def passed(self) -> bool:
        """True iff every check passed."""
        return all(ok for _, ok, _ in self.checks)

    def render(self) -> str:
        """Human-readable summary."""
        lines = [f"verification of PPScheme(q={self.q}, n={self.n}), level={self.level}"]
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            lines.append(f"  [{mark}] {name}{suffix}")
        lines.append("RESULT: " + ("all checks passed" if self.passed else "FAILURES PRESENT"))
        return "\n".join(lines)


def verify_instance(
    q: int = 2, n: int = 5, level: str = "quick", seed: int = 0
) -> VerificationReport:
    """Run the invariant suite against a live instance."""
    if level not in _LEVELS:
        raise ValueError(f"level must be one of {_LEVELS}")
    rep = VerificationReport(q=q, n=n, level=level)
    scheme = PPScheme(q, n)
    g = scheme.graph
    rng = np.random.default_rng(seed)

    # 1. Fact 1 counts
    c = fact1_counts(q, n)
    rep.record(
        "fact1-counts",
        g.N == c["U"] and g.M == c["V"],
        f"N={g.N}, M={g.M}",
    )

    # 2. sampled Lemma-1 structure: q+1 distinct copies per variable
    sample = min(512, g.M)
    mats = g.random_variable_matrices(sample, rng)
    mods = g.vgamma_variables(mats)
    distinct_rows = all(len(set(r.tolist())) == q + 1 for r in mods[:128])
    rep.record("lemma1-distinct-copies", distinct_rows, f"{sample} sampled")

    # 3. Lemma-1/2 duality on a few modules
    dual_ok = True
    for u in rng.integers(0, g.N, 4):
        u = int(u)
        for mat in g.gamma_module(u)[:4]:
            dual_ok &= u in g.gamma_variable(g.variables.canon(mat))
    rep.record("lemma2-duality", dual_ok)

    # 4. Theorem 2 on sampled pairs
    worst = 0
    rows = [set(r.tolist()) for r in mods[:100]]
    for i in range(len(rows)):
        for j in range(i):
            worst = max(worst, len(rows[i] & rows[j]))
    rep.record("theorem2-pairs", worst <= 1, f"max intersection {worst}")

    # 5. Theorem 4 on the sample
    gam = int(np.unique(mods).size)
    bound = expansion_lower_bound(sample, q)
    rep.record("theorem4-sample", gam >= bound, f"{gam} >= {bound:.1f}")

    # 6. addressing round-trip
    if level in ("standard", "full") and g.M <= 400_000:
        idx = np.arange(g.M, dtype=np.int64)
    else:
        idx = np.sort(
            rng.choice(min(g.M, 2**62), size=min(2000, g.M), replace=False)
        ).astype(np.int64) % g.M
        idx = np.unique(idx)
    try:
        back = scheme.addressing.vrank(scheme.addressing.vunrank(idx))
        rep.record(
            "addressing-roundtrip",
            bool(np.array_equal(back, idx)),
            f"{idx.shape[0]} indices",
        )
    except Exception as exc:  # pragma: no cover
        rep.record("addressing-roundtrip", False, repr(exc))

    # 7. placement injectivity on the sample
    take = idx[: min(2000, idx.shape[0])]
    m2, s2 = scheme.placement_for(take)
    cells = set(zip(m2.ravel().tolist(), s2.ravel().tolist()))
    rep.record(
        "placement-injective",
        len(cells) == take.shape[0] * (q + 1),
        f"{take.shape[0]} variables",
    )

    # 8. read-your-writes probe
    probe = scheme.random_request_set(min(256, g.M, g.N), seed=seed)
    store = scheme.make_store()
    scheme.write(probe, values=probe % (1 << 20), store=store, time=1)
    res = scheme.read(probe, store=store, time=2)
    rep.record(
        "read-your-writes",
        bool((res.values == probe % (1 << 20)).all()),
        f"{probe.shape[0]} variables",
    )

    # 9. full: definition-level edges
    if level == "full":
        if g.F.order ** 3 > 3_000_000:
            rep.record("definition-edges", False, "infeasible at this size")
        else:
            edges = g.explicit_edges()
            ok = len(edges) == g.M * (q + 1)
            rep.record("definition-edges", ok, f"{len(edges)} edges")
    return rep
