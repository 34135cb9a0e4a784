""":class:`PPScheme` -- the paper's system as a memory scheme.

Bundles the memory graph (Section 2) and the addressing layer
(Section 4) as a :class:`~repro.schemes.base.MemoryScheme`, whose one
``access`` runs the Section-3 protocol:

>>> scheme = PPScheme(q=2, n=5)           # N = 1023, M = 5456, 3 copies
>>> idx = scheme.random_request_set(512, seed=0)
>>> store = scheme.make_store()
>>> w = scheme.write(idx, values=idx, store=store, time=1)
>>> r = scheme.read(idx, store=store, time=2)
>>> bool((r.values == idx).all())
True

For ``q = 2`` and odd ``n`` the indexing is the paper's O(log N)
on-the-fly computation; for other parameters (the paper defers them to
its extended version) a precomputed enumeration table stands in, which
is only feasible at validation scale and is flagged accordingly.
"""

from __future__ import annotations

import numpy as np

import repro.obs as _obs
from repro.core.addressing import AddressLayer, EnumeratedAddressing
from repro.core.graph import MemoryGraph
from repro.mpc.memory import SharedCopyStore
from repro.schemes.base import MemoryScheme

__all__ = ["PPScheme"]


class PPScheme(MemoryScheme):
    """The Pietracaprina-Preparata memory organization, end to end.

    A :class:`~repro.schemes.base.MemoryScheme` whose placement is the
    PGL2 graph of Section 2 with the on-the-fly addressing of Section 4
    and whose read/write quorum is the Section-3 majority; access runs
    through the shared :meth:`MemoryScheme.access`, under the same
    machine model as the baselines.

    Parameters
    ----------
    q:
        Even prime power (power of 2); copies per variable = q + 1.
    n:
        Extension degree >= 3.  The O(log N) addressing needs q = 2 and
        n odd; other parameters fall back to enumerated addressing.
    """

    name = "pietracaprina-preparata"

    def __init__(self, q: int = 2, n: int = 5):
        with _obs.span(
            "scheme.build", timer="scheme.build_seconds", q=q, n=n
        ) as sp:
            self.graph = MemoryGraph(q, n)
            self.q = q
            self.n = n
            self.N = self.graph.N
            self.M = self.graph.M
            self.copies_per_variable = self.graph.copies_per_variable
            self.majority = self.graph.majority
            self.read_quorum = self.write_quorum = self.majority
            self.module_capacity = self.graph.module_degree
            if q == 2 and n % 2 == 1:
                self.addressing = AddressLayer(self.graph)
                self.addressing_kind = "explicit-O(logN)"
            else:
                self.addressing = EnumeratedAddressing(self.graph)
                self.addressing_kind = "enumerated-fallback"
            sp.add(N=self.N, M=self.M, addressing=self.addressing_kind)
        if _obs.metrics_enabled():
            _obs.metrics().counter("scheme.builds").inc()
        if _obs.enabled():
            # bus-only topology announcement for live health consumers
            # (recorded traces already carry the scheme.build span)
            b = _obs.bus()
            if b is not None:
                b.publish(
                    "scheme.topology",
                    {
                        "q": self.q,
                        "n": self.n,
                        "N": self.N,
                        "M": self.M,
                        "copies": self.q + 1,
                        "majority": self.q // 2 + 1,
                    },
                )

    # -- placement -------------------------------------------------------

    def locate(self, index: int) -> list[tuple[int, int]]:
        """Physical (module, slot) of every copy of one variable."""
        return self.addressing.locate(index)

    def placement(self, indices: np.ndarray) -> np.ndarray:
        """``(V, q+1)`` module ids of the copies of each requested
        variable (vectorized unrank + Lemma 1 kernel)."""
        indices = np.asarray(indices, dtype=np.int64)
        with _obs.span(
            "address.placement", timer="address.placement_seconds",
            count=int(indices.size), slots=False,
        ):
            return self.graph.vgamma_variables(self.addressing.vunrank(indices))

    def slots(self, indices: np.ndarray, modules: np.ndarray) -> np.ndarray:
        """``(V, q+1)`` physical Lemma-4 slots (dense layout)."""
        mats = self.addressing.vunrank(np.asarray(indices, dtype=np.int64))
        return self.addressing.vslots(mats, modules)

    def placement_for(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(modules, slots)`` -- both ``(V, q+1)`` -- for the requested
        variables with one unrank per variable (Lemma 1 + Lemma 4)."""
        indices = np.asarray(indices, dtype=np.int64)
        with _obs.span(
            "address.placement", timer="address.placement_seconds",
            count=int(indices.size), slots=True,
        ):
            return self.addressing.vlocate(indices)

    # -- storage -----------------------------------------------------------

    def make_store(self) -> SharedCopyStore:
        """A fresh timestamped store shaped for this scheme
        (N modules x q^{n-1} slots)."""
        return SharedCopyStore(self.N, self.module_capacity)

    def describe(self) -> dict:
        """Structural summary including the addressing backend."""
        d = self.graph.describe()
        d["addressing"] = self.addressing_kind
        return d

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(q={self.q}, n={self.n}, N={self.N}, M={self.M}, "
            f"addressing={self.addressing_kind})"
        )
