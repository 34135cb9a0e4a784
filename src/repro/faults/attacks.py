"""Scripted end-to-end attacks built from the fault-model primitives.

:mod:`repro.faults.models` provides declarative per-batch fault plans;
this module packages the full *timeline* of the one attack the majority
protocol provably cannot mask -- the ``q/2 + 1`` stale-majority
rollback -- as a reusable object, so the batch conformance canary
(:func:`repro.conformance.differential.stale_majority_canary`) and the
online watchdog canary
(:func:`repro.conformance.streaming.run_watchdog_canary`) script the
identical adversary instead of each re-deriving it.

The timeline: seed two rounds of history (old values at round 1, fresh
at round 2), roll ``k`` copies of each victim back to the old (value,
stamp), unplug one side of the copy map, and keep accessing.  With
``k = q/2 + 1`` and the fresh remnant unreachable the protocol answers
reads with the stale value *without reporting a fault* -- silent
corruption.  With ``k <= q/2`` (or the stale side unplugged) every read
quorum still intersects the fresh set and the run merely degrades.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, schemes import lazily
    from repro.core.protocol import AccessResult
    from repro.schemes.base import MemoryScheme

from repro.faults.models import FaultContext, StaleCopies, disjoint_victims

__all__ = ["payload_values", "StaleMajorityAttack", "build_stale_majority"]

#: payloads stay well under the protocol's 32-bit value packing limit
_VAL_MOD = 1 << 20


def payload_values(t: int, idx: np.ndarray) -> np.ndarray:
    """Deterministic write payloads: a function of (round, variable), so
    every scheme sees byte-identical values and any stale read is
    attributable to a specific earlier round."""
    return (np.asarray(idx, dtype=np.int64) * 2654435761 + t * 97) % _VAL_MOD


@dataclass
class StaleMajorityAttack:
    """One scripted stale-majority adversary bound to a scheme + store.

    Drive it in order: :meth:`seed_history`, :meth:`go_stale`,
    :meth:`read` (the poisoned round), then optionally
    :meth:`write_tail` to keep the run alive (the online canary needs
    rounds to pass so the window closes mid-run).
    """

    scheme: object
    idx: np.ndarray
    modules: np.ndarray
    slots: np.ndarray
    ctx: FaultContext
    victims: np.ndarray
    old_values: np.ndarray
    fresh_values: np.ndarray
    store: object
    retry_limit: int
    seed: int = 0
    #: modules unplugged by :meth:`go_stale` (None while healthy)
    failed_modules: np.ndarray | None = field(default=None)
    #: stale copies per victim applied by :meth:`go_stale`
    stale_k: int = 0
    #: protocol engine for every access the attack issues
    #: (None = the default; see :mod:`repro.core.engine`)
    engine: str | None = None

    def seed_history(self) -> None:
        """Write old values at round 1 and fresh values at round 2.

        The quorum writes are the recorded history; replaying them onto
        every copy cell (same values, same stamps) makes the rollback
        below deterministic without changing the semantics.
        """
        self.scheme.write(
            self.idx, values=self.old_values, store=self.store, time=1,
            engine=self.engine,
        )
        self.scheme.write(
            self.idx, values=self.fresh_values, store=self.store, time=2,
            engine=self.engine,
        )
        self.store.write(
            self.modules,
            self.slots,
            np.broadcast_to(self.old_values[:, None], self.modules.shape),
            1,
        )
        self.store.write(
            self.modules,
            self.slots,
            np.broadcast_to(self.fresh_values[:, None], self.modules.shape),
            2,
        )

    def go_stale(
        self, k: int | None = None, cut: str = "auto"
    ) -> np.ndarray:
        """Roll ``k`` copies of each victim back and unplug one side.

        ``k`` defaults to ``q/2 + 1`` (just past the break-even).
        ``cut`` picks which modules fail: ``"fresh"`` kills the fresh
        remnant (the stale majority is the only reachable quorum --
        silent corruption), ``"stale"`` kills the stale cells' modules
        (the fresh majority answers -- a degraded but correct run);
        ``"auto"`` chooses by whether ``k`` exceeds the tolerance.
        Returns the failed module ids.
        """
        if k is None:
            k = self.ctx.tolerance + 1
        if cut == "auto":
            cut = "fresh" if k > self.ctx.tolerance else "stale"
        if cut not in ("fresh", "stale"):
            raise ValueError(f"cut must be 'fresh', 'stale' or 'auto', not {cut!r}")
        plan = StaleCopies(copies_per_victim=k, victims=self.victims).plan(
            self.ctx, 1.0, seed=self.seed
        )
        StaleCopies.apply(plan, self.store, self.ctx, self.old_values, 1)
        stale_cols = plan.stale[1].reshape(self.victims.size, -1)
        mods: list[np.ndarray] = []
        for i, v in enumerate(self.victims):
            if cut == "fresh":
                cols = np.setdiff1d(
                    np.arange(self.ctx.copies), stale_cols[i]
                )
            else:
                cols = stale_cols[i]
            mods.append(self.modules[int(v), cols])
        self.failed_modules = np.unique(np.concatenate(mods)).astype(np.int64)
        self.stale_k = k
        return self.failed_modules

    def _fault_kwargs(self) -> dict:
        kw: dict = {"engine": self.engine}
        if self.failed_modules is not None and self.failed_modules.size:
            kw.update(
                failed_modules=self.failed_modules,
                allow_partial=True,
                retry_limit=self.retry_limit,
            )
        return kw

    def read(self, time: int = 3) -> "AccessResult":
        """One read batch of every attacked variable at ``time``."""
        return self.scheme.read(
            self.idx, store=self.store, time=time, **self._fault_kwargs()
        )

    def write_tail(self, time: int, values: np.ndarray) -> "AccessResult":
        """One follow-up write batch (keeps the logical clock moving)."""
        return self.scheme.write(
            self.idx,
            values=values,
            store=self.store,
            time=time,
            **self._fault_kwargs(),
        )

    def victim_verdict(
        self, res: "AccessResult", time: int = 3
    ) -> tuple[list[tuple[int, int, int]], int]:
        """Which reads came back silently wrong.

        Returns ``(expected, silent_wrong)``: the (processor, round,
        variable) identities a checker must flag, and their count.
        Reads the protocol itself *reported* lost are excluded -- those
        are honest failures, not silent corruption.
        """
        lost = np.zeros(self.idx.size, dtype=bool)
        if res.unsatisfiable is not None:
            lost[res.unsatisfiable] = True
        silent_wrong = (~lost) & (res.values != self.fresh_values)
        expected = [
            (int(p), time, int(self.idx[int(p)]))
            for p in np.flatnonzero(silent_wrong)
        ]
        return expected, int(np.count_nonzero(silent_wrong))


def build_stale_majority(
    seed: int = 0,
    n_victims: int = 3,
    scheme: "MemoryScheme | None" = None,
    engine: str | None = None,
) -> StaleMajorityAttack:
    """Construct the attack on a fresh scheme + store.

    Defaults to the q = 2 construction (3 copies, majority 2, tolerance
    1) -- the smallest instance where ``q/2 + 1`` stale copies form a
    majority.
    """
    if scheme is None:
        from repro.schemes import PPAdapter

        scheme = PPAdapter(2, 3)
    count = min(scheme.N, scheme.M, 48)
    idx = scheme.random_request_set(count, seed=seed)
    modules, slots = scheme.placement_for(idx)
    ctx = FaultContext(scheme.N, modules, scheme.read_quorum, slots=slots)
    victims = disjoint_victims(modules, n_victims)
    return StaleMajorityAttack(
        scheme=scheme,
        idx=idx,
        modules=modules,
        slots=slots,
        ctx=ctx,
        victims=victims,
        old_values=payload_values(1, idx),
        fresh_values=payload_values(2, idx),
        store=scheme.make_store(),
        retry_limit=64 * (count + ctx.copies),
        seed=seed,
        engine=engine,
    )
