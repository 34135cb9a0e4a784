"""The memory-organization graph ``G(V, U; E)`` of Section 2.

``V`` (variables) are the left cosets of ``H0 = PGL2(q)`` in
``PGL2(q^n)``; ``U`` (modules) the left cosets of
``H_{n-1} = {(a, alpha; 0, 1)}``.  Edges are non-empty coset
intersections.  The graph is never stored: neighbourhoods come from the
paper's algebraic formulas,

* Lemma 1:  ``Gamma(A H0) = {A H_{n-1}} ∪ {A (a, 1; 1, 0) H_{n-1} : a in F_q}``
* Lemma 2:  ``Gamma(A H_{n-1}) = {A (1, p; 0, 1) H0 : p in P_gamma}``
* Lemma 3:  ``Gamma^2(A H_{n-1}) = {A (delta, 1; 1, 0) H_{n-1} : delta in F_{q^n}}``

where ``P_gamma`` is the set of field elements expressible as
polynomials in gamma with zero constant term over F_q.

:class:`MemoryGraph` bundles the fields, subgroups, coset maps and these
formulas, including the vectorized copy->module kernel used by the
protocol simulator, and (for validation-scale parameters) an explicit
edge enumeration.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gf.gf2m import GF2m
from repro.gf.subfield import FieldEmbedding
from repro.pgl.cosets import ModuleCosets, VariableCosets
from repro.pgl.matrix import Mat, pgl2_mul, vcanon, vmul
from repro.pgl.subgroups import SubgroupH0, SubgroupHn1

__all__ = ["MemoryGraph"]


def _is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class MemoryGraph:
    """The coset graph G(V, U; E) for parameters (q, n).

    Parameters
    ----------
    q:
        An even prime power (a power of 2, >= 2): each variable gets
        ``q + 1`` copies and reads/writes touch a majority ``q/2 + 1``.
    n:
        Extension degree, ``n >= 3``.

    Attributes
    ----------
    F:
        The field F_{q^n} (as GF(2^{k n}) where q = 2^k).
    Fq:
        The field F_q.
    N:
        Number of modules, ``(q^n + 1)(q^n - 1)/(q - 1)``.
    M:
        Number of variables,
        ``(q^n + 1) q^n (q^n - 1) / ((q + 1) q (q - 1))``.
    p_gamma:
        int64 array of the ``q^{n-1}`` elements of ``P_gamma`` in slot
        order (this order *is* the physical copy-slot order of Section 4).
    slot_of_elem:
        int64 array over all ``q^n`` field elements: ``slot_of_elem[x]``
        is the ``k`` with ``x in p_k + F_q`` (Lemma-4 slot lookup).
    """

    def __init__(self, q: int, n: int):
        if not _is_power_of_two(q) or q < 2:
            raise ValueError(f"q must be an even prime power (power of 2), got {q}")
        if n < 3:
            raise ValueError(f"n must be >= 3, got {n}")
        k = q.bit_length() - 1
        self.q = q
        self.n = n
        self.k = k
        self.Fq = GF2m.get(k) if k >= 1 else GF2m.get(1)
        self.F = GF2m.get(k * n)
        self.embedding = FieldEmbedding(self.Fq, self.F)
        self.H0 = SubgroupH0(self.embedding)
        self.Hn1 = SubgroupHn1(self.embedding)
        self.modules = ModuleCosets(self.F, self.embedding)
        self.variables = VariableCosets(self.F, self.H0)
        self.N = self.modules.N
        self.M = self.variables.M
        self.copies_per_variable = q + 1
        self.majority = q // 2 + 1
        self.module_degree = q ** (n - 1)
        self._build_p_gamma()
        # Embedded F_q elements in natural small-field order 0..q-1:
        self._fq_embedded = self.embedding.table[: q].copy()

    # -- P_gamma ---------------------------------------------------------

    def _build_p_gamma(self) -> None:
        """Enumerate P_gamma = { sum_{i=1}^{n-1} a_i gamma^i : a_i in F_q }.

        Slot order: index ``k`` has base-q digits (a_1, ..., a_{n-1}) with
        a_1 least significant.  Also builds the inverse lookup
        (element -> slot, or -1).
        """
        F, q, n = self.F, self.q, self.n
        gamma_powers = [F.pow(F.generator, i) for i in range(1, n)]
        emb = self.embedding.embed
        size = q ** (n - 1)
        p = np.zeros(size, dtype=np.int64)
        for idx in range(size):
            acc = 0
            rem = idx
            for i in range(n - 1):
                rem, digit = divmod(rem, q)
                if digit:
                    acc ^= F.mul(emb(digit), gamma_powers[i])
            p[idx] = acc
        inv = np.full(F.order, -1, dtype=np.int64)
        inv[p] = np.arange(size, dtype=np.int64)
        if np.count_nonzero(inv >= 0) != size:
            raise AssertionError("P_gamma elements are not distinct")
        # F_{q^n} = F_q (+) P_gamma, so every element splits uniquely as
        # f + p_k; slot_of_elem maps it to k (the Lemma-4 slot of the
        # coset p_k + F_q).
        fq = self.embedding.table[:q]
        of_elem = np.full(F.order, -1, dtype=np.int64)
        of_elem[(p[:, None] ^ fq[None, :]).ravel()] = np.repeat(
            np.arange(size, dtype=np.int64), q
        )
        if np.any(of_elem < 0):
            raise AssertionError("F_q + P_gamma does not cover F_{q^n}")
        self.p_gamma = p
        self.p_gamma_inverse = inv
        self.slot_of_elem = of_elem

    # -- Lemma 1: modules of a variable -----------------------------------

    def copy_matrices(self, A: Mat) -> list[Mat]:
        """The ``q+1`` matrices ``A`` and ``A (a, 1; 1, 0)`` (a in F_q)
        defining the copies of variable ``A H0``, in canonical copy order.

        Copy 0 is ``A H_{n-1}`` itself; copy ``1 + i`` uses the embedded
        i-th element of F_q.  The order is well-defined per *matrix*; the
        scheme always feeds the canonical (Section-4) matrix here so all
        processors agree on the numbering.
        """
        F = self.F
        out = [A]
        for a_small in range(self.q):
            a = int(self._fq_embedded[a_small])
            out.append(pgl2_mul(F, A, (a, 1, 1, 0)))
        return out

    def gamma_variable(self, A: Mat) -> list[int]:
        """Lemma 1: the module indices storing the copies of ``A H0``,
        in copy order.  Always has ``q + 1`` distinct entries."""
        return [self.modules.index_of(m) for m in self.copy_matrices(A)]

    def vgamma_variables(
        self, mats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Vectorized Lemma 1: for a batch of B variable matrices, return a
        ``(B, q+1)`` int64 array of module indices in copy order.

        This is the protocol's inner kernel; everything is table lookups.
        """
        F = self.F
        a, b, c, d = (np.asarray(x, dtype=np.int64) for x in mats)
        B = a.shape[0]
        out = np.empty((B, self.q + 1), dtype=np.int64)
        out[:, 0] = self.modules.vindex((a, b, c, d))
        for i in range(self.q):
            ae = np.int64(self._fq_embedded[i])
            # A @ (ae, 1; 1, 0) = (a*ae + b, a; c*ae + d, c)
            na = F.vadd(F.vmul(a, np.full(B, ae)), b)
            nb = a
            nc = F.vadd(F.vmul(c, np.full(B, ae)), d)
            nd = c
            out[:, i + 1] = self.modules.vindex((na, nb, nc, nd))
        return out

    # -- Lemma 2: variables of a module ------------------------------------

    def gamma_module(self, u: int) -> list[Mat]:
        """Lemma 2: the ``q^{n-1}`` variable cosets with a copy in module
        ``u``, as matrices ``B (1, p_k; 0, 1)`` in slot order ``k``.

        The returned matrices are the *copy-defining* matrices (not
        variable-canonical); apply ``variables.canon`` for coset identity.
        """
        B = self.modules.rep_of(u)
        F = self.F
        return [
            pgl2_mul(F, B, (1, int(p), 0, 1)) for p in self.p_gamma
        ]

    def gamma_module_keys(self, u: int) -> list[int]:
        """Variable coset keys (canonical packed ints) of ``Gamma(u)``."""
        return [self.variables.key(m) for m in self.gamma_module(u)]

    # -- Lemma 3: Gamma^2 ----------------------------------------------------

    def gamma2_module(self, u: int) -> list[int]:
        """Lemma 3: ``Gamma^2(u) = {B (delta, 1; 1, 0) H_{n-1} : delta in
        F_{q^n}}`` as module indices (q^n of them, excluding u itself)."""
        B = self.modules.rep_of(u)
        F = self.F
        out = []
        for delta in range(F.order):
            m = pgl2_mul(F, B, (delta, 1, 1, 0))
            out.append(self.modules.index_of(m))
        return out

    # -- batch canonical keys (for dedup / identity at scale) ---------------

    def vkeys(
        self, mats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Vectorized variable-coset keys: min over the |H0| right
        translates of the packed canonical matrix code.

        |H0| = q^3 - q is constant (6 for q=2), so this is a constant
        number of vectorized matrix products per batch.
        """
        F = self.F
        a, b, c, d = (np.asarray(x, dtype=np.int64) for x in mats)
        kord = np.int64(F.order)
        best = None
        for h in self.H0.elements():
            ha, hb, hc, hd = (np.int64(x) for x in h)
            prod = vmul(F, (a, b, c, d), (ha, hb, hc, hd))
            ca, cb, cc, cd = vcanon(F, prod)
            code = ((ca * kord + cb) * kord + cc) * kord + cd
            best = code if best is None else np.minimum(best, code)
        return best

    # -- explicit enumeration (validation scale) ----------------------------

    def group_element_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All |PGL2(q^n)| canonical matrices as four int64 arrays
        (vectorized construction; Theta(q^{3n}) memory -- validation scale)."""
        F = self.F
        k = F.order
        grid = np.arange(k, dtype=np.int64)
        a3, b3, c3 = (
            x.reshape(-1) for x in np.meshgrid(grid, grid, grid, indexing="ij")
        )
        det = F.vadd(a3, F.vmul(b3, c3))  # det of (a, b; c, 1)
        ok = det != 0
        a = np.concatenate([a3[ok], np.repeat(grid, k - 1)])
        b = np.concatenate([b3[ok], np.tile(grid[1:], k)])
        c = np.concatenate([c3[ok], np.ones((k - 1) * k, dtype=np.int64)])
        d = np.concatenate(
            [
                np.ones(int(ok.sum()), dtype=np.int64),
                np.zeros((k - 1) * k, dtype=np.int64),
            ]
        )
        return a, b, c, d

    def explicit_edges(self) -> set[tuple[int, int]]:
        """Ground-truth edges as (variable key, module index) pairs.

        Every group element lies in exactly one variable coset and one
        module coset, so pairing (vkeys, vindex) over the whole group
        enumerates the coset intersections -- i.e. the edges -- directly
        from the definition, independently of Lemmas 1-2.
        """
        mats = self.group_element_arrays()
        vkeys = self.vkeys(mats)
        uidx = self.modules.vindex(mats)
        return set(zip(vkeys.tolist(), uidx.tolist()))

    def all_variable_matrices(self) -> list[Mat]:
        """All M variable cosets as canonical matrices (validation scale),
        sorted by packed key."""
        keys = np.unique(self.vkeys(self.group_element_arrays()))
        if keys.size != self.M:
            raise AssertionError(
                f"enumerated {keys.size} variable cosets, expected {self.M}"
            )
        return [self.variables.unkey(int(k)) for k in keys]

    # -- sampling -------------------------------------------------------------

    def random_variable_matrices(
        self, count: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sample ``count`` *distinct* variable cosets uniformly; returns
        the four entry arrays of their canonical matrices.

        Sampling: draw random nonsingular matrices (uniform over the
        group, hence uniform over cosets), canonicalize to coset keys,
        deduplicate, repeat until enough.  Requires ``count <= M``.
        """
        if count > self.M:
            raise ValueError(f"cannot sample {count} distinct of {self.M} variables")
        F = self.F
        chosen: dict[int, int] = {}
        keys_order: list[int] = []
        while len(keys_order) < count:
            need = max(64, int(1.3 * (count - len(keys_order))))
            a = F.random_elements(need, rng)
            b = F.random_elements(need, rng)
            c = F.random_elements(need, rng)
            d = F.random_elements(need, rng)
            det = F.vadd(F.vmul(a, d), F.vmul(b, c))
            ok = det != 0
            a, b, c, d = a[ok], b[ok], c[ok], d[ok]
            keys = self.vkeys((a, b, c, d))
            for key in keys:
                key = int(key)
                if key not in chosen:
                    chosen[key] = 1
                    keys_order.append(key)
                    if len(keys_order) == count:
                        break
        mats = [self.variables.unkey(key) for key in keys_order]
        arr = np.array(mats, dtype=np.int64)
        return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]

    # -- reporting --------------------------------------------------------------

    def describe(self) -> dict:
        """Structural summary (Fact 1 quantities and derived exponents)."""
        qn = self.F.order
        return {
            "q": self.q,
            "n": self.n,
            "q^n": qn,
            "N": self.N,
            "M": self.M,
            "copies_per_variable": self.copies_per_variable,
            "majority": self.majority,
            "variable_degree": self.q + 1,
            "module_degree": self.module_degree,
            "M_exponent_vs_N": math.log(self.M) / math.log(self.N),
            "predicted_exponent": 1.5 - 3.0 / (4 * self.n - 2),
        }

    def __repr__(self) -> str:
        return f"MemoryGraph(q={self.q}, n={self.n}, N={self.N}, M={self.M})"
