"""Section 4: explicit indexing of variables, modules, and copy slots.

The paper's implementation layer for ``q = 2`` and ``n`` odd.  Each
variable index ``i in [0, M)`` maps to a matrix ``A_i`` (a representative
of a distinct coset of ``PGL2(2^n)/H0``) computable in O(log N) field
operations with O(1) registers, so no processor ever stores a memory map.

Construction recap (all in the quadratic extension L = F_{2^{2n}} with
generator lambda):

* ``rho = (2^{2n} - 1)/3``, ``sigma = 2^n + 1``, ``tau = sigma / 3``
  (integral because n is odd), ``w = lambda^rho`` generates F_4^*;
* a matrix row ``(x, y)`` over ``K = F_{2^n}`` is the element
  ``x*w + y`` of L ((w,1) is a basis since n odd keeps w outside K);
* ``k(s, t) = (s + t*sigma) mod rho``;
* the representative matrices are the four families (paper Section 4)

    S1 = { <1, lambda^(i*sigma) w> },
    S2 = { <1, lambda^k(s,t) w^j> },
    S3 = { <lambda^k(s,t) w^j, 1> },
    S4 = { <lambda^s, lambda^i w^j> : 1 <= i < rho, tau !| i,
           lambda^s (w^j lambda^i)^{-1} not in K^* }.

The S4 side condition simplifies dramatically: K^* consists of the
lambda-powers with exponent divisible by sigma, so the condition excludes
exactly the ``i`` with ``i === s - j*rho (mod sigma)``; since
``rho === tau (mod sigma)``, the three excluded residues are
``{s, s + tau, s + 2*tau}`` -- one per j, each coprime-to-tau because
``1 <= s < tau``.  Counting valid pairs below a threshold is then pure
floor arithmetic, which yields the O(log N) unranking the paper's
Theorem 8 asserts (its proof was omitted there "due to space
limitations"; the exhaustive tests for n = 3, 5 verify completeness and
distinctness of this realization).

The module also provides the physical *slot* of a copy inside its module
(Lemma 4): module ``u`` stores the variables ``B_u (1, p_k; 0, 1) H0``
at slots ``k`` in P_gamma order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.obs as _obs
from repro.gf.gf2m import GF2m
from repro.gf.subfield import BasisDecomposition, FieldEmbedding
from repro.core.graph import MemoryGraph
from repro.pgl.matrix import Mat, pgl2_canon, pgl2_inv, pgl2_mul, vcanon, vmul

__all__ = ["OpCounter", "AddressLayer", "batched_slots"]


def batched_slots(
    graph: MemoryGraph,
    mats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    modules: np.ndarray,
) -> np.ndarray:
    """Vectorized Lemma-4 slot computation in closed form.

    For each (variable matrix A, module u) let ``C = B_u^{-1} A`` act as
    a Moebius map.  Module u stores ``A H0`` at slot k iff
    ``C = (1, p_k; 0, 1) h`` with ``h in H0 = PGL2(q)``, i.e. iff C maps
    the ``q + 1`` points of ``P^1(F_q)`` onto ``{inf} ∪ (p_k + F_q)``:
    conversely ``(1, p_k; 0, 1)^{-1} C`` then fixes ``P^1(F_q)`` setwise,
    so it is the unique Moebius map through three F_q-points and lies in
    H0.  So: evaluate C on ``P^1(F_q)`` (for q = 2 on inf, 0, 1 with no
    multiplication), require exactly one image at infinity, and read
    the slot of each finite image from ``graph.slot_of_elem``; all q
    must agree.  The lookup depends only on the graph, not on how the
    matrices were unranked.
    """
    F = graph.F
    V, copies = modules.shape
    qn1 = F.order + 1
    flat = modules.reshape(-1)
    gs = F.vexp(flat // qn1)
    t = flat % qn1 - 1
    diag = t < 0
    a, b, c, d = (np.repeat(m, copies) for m in mats)
    # B_u^{-1} (projective adjugate, char 2): (1, 0; 0, gs) when B_u is
    # diagonal, else (0, gs; 1, t); C = B_u^{-1} A.
    gc = F.vmul(gs, c)
    gd = F.vmul(gs, d)
    tt = np.where(diag, np.int64(0), t)
    Ca = np.where(diag, a, gc)
    Cb = np.where(diag, b, gd)
    Cc = np.where(diag, gc, F.vadd(a, F.vmul(tt, c)))
    Cd = np.where(diag, gd, F.vadd(b, F.vmul(tt, d)))
    # C(inf) = Ca / Cc;  C(x) = (Ca x + Cb) / (Cc x + Cd) for x in F_q
    nums, dens = [Ca], [Cc]
    for x in graph.embedding.table[: graph.q].tolist():
        if x == 0:
            nums.append(Cb)
            dens.append(Cd)
        elif x == 1:
            nums.append(F.vadd(Ca, Cb))
            dens.append(F.vadd(Cc, Cd))
        else:
            xs = np.int64(x)
            nums.append(F.vadd(F.vmul(Ca, xs), Cb))
            dens.append(F.vadd(F.vmul(Cc, xs), Cd))
    num = np.stack(nums)
    den = np.stack(dens)
    finite = den != 0
    pts = np.full(num.shape, -1, dtype=np.int64)
    pts[finite] = graph.slot_of_elem[F.vdiv(num[finite], den[finite])]
    slot = pts.max(axis=0)
    ok = (np.count_nonzero(~finite, axis=0) == 1) & np.all(
        (pts == slot) | ~finite, axis=0
    )
    if not ok.all():
        raise AssertionError("vectorized slot computation failed")
    return slot.reshape(V, copies)


@dataclass
class OpCounter:
    """Tally of elementary operations spent in address computations.

    The paper counts "arithmetic operations and operations in F_{q^n}".
    Our simulator performs discrete logs by table lookup; in the paper's
    O(1)-register model a dlog over the on-the-fly representation costs
    O(n) = O(log N) elementary steps, so :meth:`modeled_steps` charges
    each dlog ``n`` steps while field ops and integer ops cost 1.
    """

    field_ops: int = 0
    int_ops: int = 0
    dlogs: int = 0
    search_iters: int = 0
    calls: int = 0
    n: int = field(default=0)

    def modeled_steps(self) -> int:
        """Total steps in the paper's cost model (dlog == n steps)."""
        return (
            self.field_ops + self.int_ops + self.search_iters + self.dlogs * self.n
        )

    def reset(self) -> None:
        """Zero every counter (keeps ``n``)."""
        self.field_ops = self.int_ops = self.dlogs = 0
        self.search_iters = self.calls = 0


class AddressLayer:
    """Index <-> coset bijections of Section 4 (q = 2, n odd).

    Parameters
    ----------
    graph:
        The :class:`~repro.core.graph.MemoryGraph`; must have ``q == 2``
        and odd ``n``.
    """

    def __init__(self, graph: MemoryGraph):
        if graph.q != 2:
            raise ValueError(
                "the paper's explicit addressing is specified for q = 2 "
                "(general q is deferred to its extended version); use the "
                "enumerated fallback in PPScheme for other q"
            )
        if graph.n % 2 == 0:
            raise ValueError("Section 4 requires n odd (so that 3 | 2^n + 1)")
        self.graph = graph
        n = graph.n
        self.n = n
        self.K = graph.F
        self.L = GF2m.get(2 * n)
        self.G = self.L.group_order  # 2^{2n} - 1
        self.rho = self.G // 3
        self.sigma = (1 << n) + 1
        self.tau = self.sigma // 3
        self.smax = ((1 << (n - 1)) - 1) // 3
        self.w = self.L.exp(self.rho)
        self.embedding = FieldEmbedding(self.K, self.L)
        self.basis = BasisDecomposition(self.embedding, self.w)
        # Block layout: [S1 | S2 | S3 | S4]
        qn = 1 << n
        self.c1 = qn - 1
        self.c2 = (qn - 1) * ((qn >> 1) - 1)
        self.c3 = self.c2
        self.c4_per_s = (qn - 1) * (qn - 3)
        self.c4 = self.smax * self.c4_per_s
        self.M = self.c1 + self.c2 + self.c3 + self.c4
        if self.M != graph.M:
            raise AssertionError(
                f"S-set sizes sum to {self.M}, but M = {graph.M}"
            )
        self.ops = OpCounter(n=n)
        self._h0_elements = graph.H0.elements()

    # ------------------------------------------------------------------
    # S4 combinatorics
    # ------------------------------------------------------------------

    def _s4_residues(self, s: int) -> tuple[int, int, int]:
        """The three excluded residues mod sigma for parameter ``s``:
        ``r_j = (s - j*rho) mod sigma`` -> ``(s, s + 2*tau, s + tau)``."""
        return (s, (s + 2 * self.tau) % self.sigma, (s + self.tau) % self.sigma)

    def _s4_count(self, s: int, x: int) -> int:
        """Number of valid S4 pairs ``(i, j)`` with ``1 <= i <= x``.

        Valid means ``tau !| i`` and ``i mod sigma != r_j`` for the pair's
        own ``j``; each invalid residue kills exactly one ``j`` at its
        ``i`` values, and those ``i`` are never multiples of tau, so

            count(x) = 3 * (x - floor(x / tau)) - sum_j |{i <= x : i === r_j}|.
        """
        if x <= 0:
            return 0
        base = 3 * (x - x // self.tau)
        excl = 0
        for r in self._s4_residues(s):
            if x >= r:
                excl += (x - r) // self.sigma + 1
        return base - excl

    def _s4_unrank(self, s: int, r: int) -> tuple[int, int]:
        """The ``r``-th (0-based) valid pair ``(i, j)`` for parameter ``s``,
        ordered by ``i`` then ``j``.  O(log rho) binary search."""
        if not 0 <= r < self.c4_per_s:
            raise ValueError(f"S4 residual rank {r} out of range")
        lo, hi = 1, self.rho - 1  # smallest i with count(i) >= r + 1
        while lo < hi:
            mid = (lo + hi) // 2
            self.ops.search_iters += 1
            if self._s4_count(s, mid) >= r + 1:
                hi = mid
            else:
                lo = mid + 1
        i = lo
        within = r - self._s4_count(s, i - 1)
        res = self._s4_residues(s)
        imod = i % self.sigma
        valid_js = [j for j in range(3) if imod != res[j]]
        return i, valid_js[within]

    def _s4_rank(self, s: int, i: int, j: int) -> int:
        """Inverse of :meth:`_s4_unrank`."""
        res = self._s4_residues(s)
        imod = i % self.sigma
        valid_js = [jj for jj in range(3) if imod != res[jj]]
        return self._s4_count(s, i - 1) + valid_js.index(j)

    def _s4_pair_valid(self, s: int, i: int, j: int) -> bool:
        """Validity of an S4 pair (range, tau, and subfield conditions)."""
        if not (1 <= i < self.rho) or i % self.tau == 0:
            return False
        return i % self.sigma != self._s4_residues(s)[j]

    # ------------------------------------------------------------------
    # k(s, t) helpers for S2 / S3
    # ------------------------------------------------------------------

    def _k(self, s: int, t: int) -> int:
        """``k(s, t) = (s + t*sigma) mod rho``."""
        return (s + t * self.sigma) % self.rho

    def _k_invert(self, kappa: int) -> tuple[int, int] | None:
        """Invert ``k``: find the unique in-range ``(s, t)`` with
        ``k(s, t) == kappa``, or None.

        ``s + t*sigma`` lies in ``[1, 1 + (2^n - 2) sigma] < 3 rho``, so the
        wrap count ``m`` is 0, 1, or 2: test ``kappa + m*rho``.
        """
        for m in range(3):
            cand = kappa + m * self.rho
            self.ops.int_ops += 2
            t, s = divmod(cand, self.sigma)
            if 1 <= s <= self.smax and 0 <= t < (1 << self.n) - 1:
                return s, t
        return None

    # ------------------------------------------------------------------
    # unrank: index -> matrix
    # ------------------------------------------------------------------

    def _pair_to_matrix(self, alpha: int, beta: int) -> Mat:
        """Convert ``<alpha, beta>`` (two L elements) to the canonical
        PGL2 matrix over K via the (w, 1) basis split."""
        x, y = self.basis.split(alpha)
        z, v = self.basis.split(beta)
        self.ops.field_ops += 8  # two splits: frobenius + mul + add each
        return pgl2_canon(self.K, (x, y, z, v))

    def unrank(self, index: int) -> Mat:
        """The matrix ``A_index`` -- canonical representative of the
        ``index``-th variable coset.  O(log N) operations, O(1) storage.
        """
        if not 0 <= index < self.M:
            raise ValueError(f"variable index {index} out of [0, {self.M})")
        self.ops.calls += 1
        if _obs.metrics_enabled():
            _obs.metrics().counter("address.unranks").inc()
        if _obs.enabled():
            led = _obs.ledger()
            if led is not None:
                led.count("addr.on_the_fly")
        L = self.L
        if index < self.c1:
            i = index
            alpha = 1
            beta = L.exp(i * self.sigma + self.rho)
            self.ops.dlogs += 1
            self.ops.int_ops += 2
            return self._pair_to_matrix(alpha, beta)
        index -= self.c1
        if index < self.c2:
            s, t, j = self._s2_params(index)
            alpha = 1
            beta = L.exp(self._k(s, t) + j * self.rho)
            self.ops.dlogs += 1
            self.ops.int_ops += 4
            return self._pair_to_matrix(alpha, beta)
        index -= self.c2
        if index < self.c3:
            s, t, j = self._s2_params(index)
            alpha = L.exp(self._k(s, t) + j * self.rho)
            beta = 1
            self.ops.dlogs += 1
            self.ops.int_ops += 4
            return self._pair_to_matrix(alpha, beta)
        index -= self.c3
        s = index // self.c4_per_s + 1
        r = index % self.c4_per_s
        i, j = self._s4_unrank(s, r)
        alpha = L.exp(s)
        beta = L.exp(i + j * self.rho)
        self.ops.dlogs += 2
        self.ops.int_ops += 4
        return self._pair_to_matrix(alpha, beta)

    def _s2_params(self, r: int) -> tuple[int, int, int]:
        """Decode an S2/S3 block offset into (s, t, j): j minor, then t,
        then s (1-based)."""
        j = r % 3
        r //= 3
        qn1 = (1 << self.n) - 1
        t = r % qn1
        s = r // qn1 + 1
        return s, t, j

    def _s2_offset(self, s: int, t: int, j: int) -> int:
        """Inverse of :meth:`_s2_params`."""
        qn1 = (1 << self.n) - 1
        return ((s - 1) * qn1 + t) * 3 + j

    # ------------------------------------------------------------------
    # rank: matrix -> index
    # ------------------------------------------------------------------

    def rank(self, m: Mat) -> int:
        """Index of the variable coset containing matrix ``m``.

        Scans the |H0| = 6 right translates; for each, matches the
        translate (up to a K^* scalar) against the four S-set patterns.
        Theorem 8 guarantees exactly one hit; we assert uniqueness.
        """
        hits = {self._rank_one(pgl2_mul(self.K, m, h)) for h in self._h0_elements}
        hits.discard(None)
        if len(hits) != 1:
            raise AssertionError(
                f"matrix {m} matched {len(hits)} S-set entries; Theorem 8 "
                "guarantees exactly one"
            )
        return hits.pop()

    def _rank_one(self, T: Mat) -> int | None:
        """Match a single (canonical) matrix against the S-set patterns,
        allowing an arbitrary K^* scalar.  Returns a global index or None.
        """
        L = self.L
        x, y, z, v = T
        alpha = self.basis.combine(x, y)
        beta = self.basis.combine(z, v)
        # -- patterns with alpha scaled to 1 (S1, S2): alpha must be in K^*.
        if x == 0:  # alpha = y in K
            ratio = L.div(beta, alpha)
            e = L.log(ratio)
            # S1: e == i*sigma + rho
            diff = (e - self.rho) % self.G
            if diff % self.sigma == 0:
                i = diff // self.sigma
                if 0 <= i < (1 << self.n) - 1:
                    return i
            # S2: e == k(s, t) + j*rho
            for j in range(3):
                kappa = (e - j * self.rho) % self.G
                if kappa < self.rho:
                    st = self._k_invert(kappa)
                    if st is not None:
                        s, t = st
                        return self.c1 + self._s2_offset(s, t, j)
        # -- pattern with beta scaled to 1 (S3): beta in K^*.
        if z == 0:  # beta = v in K^* (v != 0 by nonsingularity)
            ratio = L.div(alpha, beta)
            e = L.log(ratio)
            for j in range(3):
                kappa = (e - j * self.rho) % self.G
                if kappa < self.rho:
                    st = self._k_invert(kappa)
                    if st is not None:
                        s, t = st
                        return self.c1 + self.c2 + self._s2_offset(s, t, j)
        # -- S4: alpha scaled to lambda^s with 1 <= s <= smax.
        ea = L.log(alpha)
        s = ea % self.sigma
        if 1 <= s <= self.smax:
            # mu = lambda^(s - ea) in K^*; beta' = mu * beta
            eb = (L.log(beta) + s - ea) % self.G
            for j in range(3):
                i = (eb - j * self.rho) % self.G
                if self._s4_pair_valid(s, i, j):
                    return (
                        self.c1
                        + self.c2
                        + self.c3
                        + (s - 1) * self.c4_per_s
                        + self._s4_rank(s, i, j)
                    )
        return None

    # ------------------------------------------------------------------
    # vectorized unrank
    # ------------------------------------------------------------------

    def vunrank(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`unrank`: map an int64 index array to the four
        entry arrays of canonical variable matrices.

        Same O(log N) structure, executed as ~2n numpy passes for the S4
        binary search; this is what makes protocol experiments at
        N = 262k feasible.
        """
        if _obs.enabled():
            led = _obs.ledger()
            if led is not None:
                led.count("addr.on_the_fly", int(np.asarray(indices).size))
            with _obs.span(
                "address.vunrank",
                timer="address.vunrank_seconds",
                count=int(np.asarray(indices).size),
            ):
                return self._vunrank(indices)
        return self._vunrank(indices)

    def _vunrank(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        idx = np.asarray(indices, dtype=np.int64)
        if np.any((idx < 0) | (idx >= self.M)):
            raise ValueError("variable index out of range in vunrank")
        L = self.L
        G = self.G
        rho, sigma, tau = self.rho, self.sigma, self.tau
        qn1 = (1 << self.n) - 1

        e_alpha = np.zeros_like(idx)  # exponent of alpha; -1 means alpha == 1
        e_beta = np.zeros_like(idx)
        alpha_is_one = np.zeros(idx.shape, dtype=bool)
        beta_is_one = np.zeros(idx.shape, dtype=bool)

        b1 = idx < self.c1
        b2 = (~b1) & (idx < self.c1 + self.c2)
        b3 = (~b1) & (~b2) & (idx < self.c1 + self.c2 + self.c3)
        b4 = (~b1) & (~b2) & (~b3)

        # S1
        i1 = idx[b1]
        alpha_is_one[b1] = True
        e_beta[b1] = (i1 * sigma + rho) % G

        # S2 / S3 share parameter decoding
        def s2_exponent(off: np.ndarray) -> np.ndarray:
            j = off % 3
            r = off // 3
            t = r % qn1
            s = r // qn1 + 1
            return ((s + t * sigma) % rho + j * rho) % G

        off2 = idx[b2] - self.c1
        alpha_is_one[b2] = True
        e_beta[b2] = s2_exponent(off2)

        off3 = idx[b3] - self.c1 - self.c2
        e_alpha[b3] = s2_exponent(off3)
        beta_is_one[b3] = True

        # S4: vector binary search
        off4 = idx[b4] - self.c1 - self.c2 - self.c3
        s4 = off4 // self.c4_per_s + 1
        r4 = off4 % self.c4_per_s
        res0 = s4 % sigma
        res1 = (s4 + 2 * tau) % sigma
        res2 = (s4 + tau) % sigma

        def vcount(xv: np.ndarray) -> np.ndarray:
            base = 3 * (xv - xv // tau)
            excl = np.zeros_like(xv)
            for r in (res0, res1, res2):
                excl += np.where(xv >= r, (xv - r) // sigma + 1, 0)
            return np.where(xv <= 0, 0, base - excl)

        lo = np.ones_like(off4)
        hi = np.full_like(off4, rho - 1)
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            ge = vcount(mid) >= r4 + 1
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid + 1)
        i4 = lo
        within = r4 - vcount(i4 - 1)
        imod = i4 % sigma
        # At most one j is excluded at each i (the residues are distinct
        # mod sigma).  The `within`-th valid j skips over the excluded one.
        j_excl = np.full_like(off4, 3)  # 3 == "no exclusion"
        j_excl = np.where(imod == res2, 2, j_excl)
        j_excl = np.where(imod == res1, 1, j_excl)
        j_excl = np.where(imod == res0, 0, j_excl)
        j4 = within + (within >= j_excl)
        if np.any((j4 < 0) | (j4 > 2)):
            raise AssertionError("S4 vector unrank failed to pick a valid j")
        e_alpha[b4] = s4 % G
        e_beta[b4] = (i4 + j4 * rho) % G

        alpha = np.where(alpha_is_one, np.int64(1), L.vexp(e_alpha))
        beta = np.where(beta_is_one, np.int64(1), L.vexp(e_beta))
        xz, yv = self.basis.vsplit(alpha)
        zz, vv = self.basis.vsplit(beta)
        return vcanon(self.K, (xz, yv, zz, vv))

    # ------------------------------------------------------------------
    # vectorized rank
    # ------------------------------------------------------------------

    def vrank(
        self, mats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Vectorized :meth:`rank`: indices of a batch of variable
        matrices (any coset representatives).

        Mirrors the scalar pattern matching across the |H0| right
        translates, expressed as numpy masks; exactly one (translate,
        pattern) hits per item by Theorem 8.
        """
        a, b, c, d = (np.asarray(x, dtype=np.int64) for x in mats)
        out = np.full(a.shape[0], -1, dtype=np.int64)
        for h in self._h0_elements:
            prod = vmul(self.K, (a, b, c, d), tuple(np.int64(x) for x in h))
            Ta, Tb, Tc, Td = vcanon(self.K, prod)
            cand = self._vrank_one(Ta, Tb, Tc, Td)
            take = (out < 0) & (cand >= 0)
            out[take] = cand[take]
        if np.any(out < 0):
            raise AssertionError("vrank failed to match some matrices")
        return out

    def _vrank_one(
        self, x: np.ndarray, y: np.ndarray, z: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`_rank_one` for a batch of canonical matrices;
        -1 where no S-set pattern matches."""
        L = self.L
        G, rho, sigma, tau = self.G, self.rho, self.sigma, self.tau
        qn1 = (1 << self.n) - 1
        B = x.shape[0]
        out = np.full(B, -1, dtype=np.int64)

        alpha = self.basis.vcombine(x, y)
        beta = self.basis.vcombine(z, v)
        e_ab = L.vlog(L.vdiv(beta, alpha))  # log(beta/alpha), always defined

        def invert_k(
            kappa: np.ndarray, valid: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Vector version of _k_invert: returns (s, t, ok)."""
            s_out = np.zeros_like(kappa)
            t_out = np.zeros_like(kappa)
            ok = np.zeros(kappa.shape, dtype=bool)
            for m in range(3):
                candv = kappa + m * rho
                t_c, s_c = np.divmod(candv, sigma)
                good = (
                    valid
                    & ~ok
                    & (s_c >= 1)
                    & (s_c <= self.smax)
                    & (t_c >= 0)
                    & (t_c < qn1)
                )
                s_out = np.where(good, s_c, s_out)
                t_out = np.where(good, t_c, t_out)
                ok |= good
            return s_out, t_out, ok

        # ---- S1 / S2: alpha in K^*  (canonical form has x == 0)
        m_a = x == 0
        diff = (e_ab - rho) % G
        s1_ok = m_a & (diff % sigma == 0) & (diff // sigma < qn1)
        out = np.where(s1_ok & (out < 0), diff // sigma, out)
        for j in range(3):
            kappa = (e_ab - j * rho) % G
            s_v, t_v, ok = invert_k(kappa, m_a & (kappa < rho) & (out < 0))
            offset = ((s_v - 1) * qn1 + t_v) * 3 + j
            out = np.where(ok, self.c1 + offset, out)

        # ---- S3: beta in K^* (canonical form has z == 0 => beta == v)
        m_b = z == 0
        e_ba = (-e_ab) % G
        for j in range(3):
            kappa = (e_ba - j * rho) % G
            s_v, t_v, ok = invert_k(kappa, m_b & (kappa < rho) & (out < 0))
            offset = ((s_v - 1) * qn1 + t_v) * 3 + j
            out = np.where(ok, self.c1 + self.c2 + offset, out)

        # ---- S4: alpha ~ lambda^s with 1 <= s <= smax
        ea = L.vlog(alpha)
        s4 = ea % sigma
        m_s4 = (s4 >= 1) & (s4 <= self.smax)
        eb = (L.vlog(beta) + s4 - ea) % G
        res0 = s4 % sigma
        res1 = (s4 + 2 * tau) % sigma
        res2 = (s4 + tau) % sigma
        for j in range(3):
            i_v = (eb - j * rho) % G
            imod = i_v % sigma
            res_j = (res0, res1, res2)[j]
            ok = (
                m_s4
                & (out < 0)
                & (i_v >= 1)
                & (i_v < rho)
                & (i_v % tau != 0)
                & (imod != res_j)
            )
            # rank within s: count of valid pairs with i' < i, plus the
            # position of j among the valid js at i.
            xm1 = i_v - 1
            base = 3 * (xm1 - xm1 // tau)
            excl = np.zeros_like(xm1)
            for r in (res0, res1, res2):
                excl += np.where(xm1 >= r, (xm1 - r) // sigma + 1, 0)
            count_below = np.where(xm1 <= 0, 0, base - excl)
            j_excl = np.full_like(i_v, 3)
            j_excl = np.where(imod == res2, 2, j_excl)
            j_excl = np.where(imod == res1, 1, j_excl)
            j_excl = np.where(imod == res0, 0, j_excl)
            pos = j - (j > j_excl)
            idx = (
                self.c1
                + self.c2
                + self.c3
                + (s4 - 1) * self.c4_per_s
                + count_below
                + pos
            )
            out = np.where(ok, idx, out)
        return out

    # ------------------------------------------------------------------
    # physical copy slots (Lemma 4)
    # ------------------------------------------------------------------

    def slot_of(self, A: Mat, module_index: int) -> int:
        """Slot ``k`` of variable ``A H0``'s copy inside module
        ``module_index``: the unique k with
        ``B_u (1, p_k; 0, 1) H0 == A H0``.

        O(1) group operations (|H0| products) plus one P_gamma lookup.
        """
        graph = self.graph
        K = self.K
        B = graph.modules.rep_of(module_index)
        C = pgl2_mul(K, pgl2_inv(K, B), A)
        for h in self._h0_elements:
            a, b, c, d = pgl2_mul(K, C, h)
            if c == 0 and d == 1 and a == 1:
                k = int(graph.p_gamma_inverse[b])
                if k >= 0:
                    return k
        raise ValueError(
            f"variable {A} has no copy in module {module_index}"
        )

    def locate(self, index: int) -> list[tuple[int, int]]:
        """Physical addresses of all ``q + 1`` copies of variable
        ``index``: a list of ``(module, slot)`` pairs in copy order."""
        A = self.unrank(index)
        out = []
        for mat in self.graph.copy_matrices(A):
            u = self.graph.modules.index_of(mat)
            out.append((u, self.slot_of(A, u)))
        return out

    def vslots(
        self,
        mats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        modules: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`slot_of` -- ``(V, q+1)`` slots for canonical
        variable matrices against their copy modules."""
        return batched_slots(self.graph, mats, modules)

    def vlocate(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`locate`: ``(modules, slots)``, both
        ``(V, q+1)``, for a batch of variable indices."""
        mats = self.vunrank(indices)
        modules = self.graph.vgamma_variables(mats)
        return modules, self.vslots(mats, modules)

    def __repr__(self) -> str:
        return (
            f"AddressLayer(n={self.n}, M={self.M}, blocks="
            f"[{self.c1}, {self.c2}, {self.c3}, {self.c4}])"
        )
