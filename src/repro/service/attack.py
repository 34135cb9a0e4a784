"""Service-level q/2+1 stale-majority poisoning.

The one fault the majority-quorum protocol cannot mask: roll exactly
``q/2 + 1`` copies of a victim variable back to a coherent older
``(value, stamp)`` epoch and crash the remaining fresh copies.  Every
read quorum then consists of stale copies only, so the protocol
*silently* serves the old value -- no quorum loss, no degraded health,
nothing at the service boundary.  Only the streaming conformance
watchdog can catch it, by diffing the served answers against dict
semantics online.

This module mounts that attack on live service keys: it locates each
victim key's value variable (slot ``s`` -> variable ``2s + 1``) in its
shard's scheme, applies :class:`~repro.faults.models.StaleCopies` to
the raw copy store, and fails the fresh modules.  :meth:`heal`
reverses it -- clear the failed modules and rewrite the victims
through the protocol so every copy is fresh again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.models import FaultContext, StaleCopies
from repro.service.shards import ShardedKV

__all__ = ["StalePoisoning", "poison_stale_majority"]


@dataclass
class StalePoisoning:
    """A mounted attack: victims, their shards, and the undo state."""

    #: poisoned keys (present in the store at mount time)
    victims: np.ndarray
    #: shard id of each victim
    shards: np.ndarray
    #: the stale value each victim's read quorum now serves
    stale_values: np.ndarray
    #: the fresh (true) value of each victim at mount time
    fresh_values: np.ndarray
    #: emitted (namespaced) scheme variable holding each victim's value
    victim_vars: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: modules crashed per shard to cut the fresh copies out
    failed_by_shard: dict[int, np.ndarray] = field(default_factory=dict)
    #: total copies rolled back
    cells_rolled_back: int = 0
    healed: bool = False

    def expected_victims(self) -> set[str]:
        """Checker ``var`` coordinates a stale get will be pinned to
        (kv-level violations carry ``proc=-1`` and ``var=str(key)``)."""
        return {str(int(k)) for k in self.victims}

    def heal(self, store: ShardedKV) -> None:
        """Clear the crashed modules and rewrite every victim fresh.

        Raises :class:`~repro.faults.report.QuorumLostError` if other
        faults crashed past the quorum bound on a victim shard; the
        attack stays mounted so the caller can retry."""
        if self.healed:
            return
        for s, _failed in self.failed_by_shard.items():
            store.set_failed_modules(int(s), None)
        for s in np.unique(self.shards):
            m = self.shards == s
            store.shard_put(
                int(s), self.victims[m].tolist(), self.fresh_values[m]
            )
        self.healed = True


def poison_stale_majority(
    store: ShardedKV,
    keys: np.ndarray,
    seed: int = 0,
    stale_time: int = 1,
) -> StalePoisoning:
    """Mount the stale-majority attack on ``keys`` (live service keys).

    For each present key: roll ``q/2 + 1`` seeded copies of its value
    variable back to ``(fresh_value + 1, stale_time)`` and crash the
    modules holding the remaining fresh copies.  Keys not found in the
    table are skipped.  Returns the mounted :class:`StalePoisoning`
    (empty ``victims`` if none were present).

    Raises :class:`~repro.faults.report.QuorumLostError` if prior
    faults already broke a victim's read quorum -- the stale majority
    cannot be formed and nothing is mounted.
    """
    keys = np.asarray(keys, dtype=np.int64)
    shard_of = store.route_ints(keys)
    victims: list[int] = []
    v_shards: list[int] = []
    v_vars: list[int] = []
    stale_vals: list[int] = []
    fresh_vals: list[int] = []
    failed_by_shard: dict[int, np.ndarray] = {}
    rolled = 0
    for s in np.unique(shard_of):
        m = shard_of == s
        ks = keys[m].tolist()
        st = store.enter_shard(int(s))
        try:
            found, slot = st.locate(ks)
            if not found.any():
                continue
            ks_arr = keys[m][found]
            fresh = st.batch_get(ks_arr.tolist())
            # a coherent stale epoch: an always-wrong value, one per key
            stale = (fresh + 1) % (1 << 20)
            var_ids = 2 * slot[found] + 1
            scheme = st.scheme
            modules, phys = scheme.placement_for(var_ids)
            majority = scheme.quorum_for("read")
            ctx = FaultContext(
                n_modules=scheme.N, module_ids=modules,
                majority=majority, slots=phys,
            )
            plan = StaleCopies(
                copies_per_victim=majority,
                victims=np.arange(var_ids.size),
            ).plan(ctx, intensity=1.0, seed=seed + int(s))
            rolled += StaleCopies.apply(
                plan, st.store, ctx, stale, stale_time
            )
            # crash the fresh complement of each victim's copy set
            rows, cols = plan.stale
            fresh_modules: list[np.ndarray] = []
            for v in range(var_ids.size):
                stale_cols = cols[rows == v]
                all_cols = np.arange(ctx.copies)
                fresh_cols = np.setdiff1d(all_cols, stale_cols)
                fresh_modules.append(modules[v, fresh_cols])
            failed = np.unique(np.concatenate(fresh_modules))
            failed_by_shard[int(s)] = failed
            st.set_failed_modules(failed)
            victims.extend(int(k) for k in ks_arr)
            v_shards.extend([int(s)] * ks_arr.size)
            v_vars.extend(int(v) + st.var_base for v in var_ids)
            stale_vals.extend(int(v) for v in stale)
            fresh_vals.extend(int(v) for v in fresh)
        finally:
            store.leave_shard(st)
    return StalePoisoning(
        victims=np.asarray(victims, dtype=np.int64),
        shards=np.asarray(v_shards, dtype=np.int64),
        victim_vars=np.asarray(v_vars, dtype=np.int64),
        stale_values=np.asarray(stale_vals, dtype=np.int64),
        fresh_values=np.asarray(fresh_vals, dtype=np.int64),
        failed_by_shard=failed_by_shard,
        cells_rolled_back=rolled,
    )
