"""Per-layer attribution, timed from outside the program.

:class:`LayerTracer` replaces each layer's public functions (the
:data:`TARGETS` table) with a wrapper that records one span -- name,
start, end, parent span and round id -- and puts every original back
on exit, also when the pass raised.  It also installs a
:class:`~repro.gf.opcount.GFOpSink` to count field operations.  The
``repro.obs`` sinks (tracer, metrics, ledger) stay off: turning them
on would change the program's code paths.

A span's *self time* is its duration minus the durations of its
direct children; a layer's self time is the sum over its spans.  The
window starts at the first request the load loop submits (served) or the
first PRAM step, and ends with the last round or step, so set-up is
not attributed.  Time in the window outside every span is the
caller's own: ``run_load``'s loop on served workloads, the kernels'
array code on ``pram-kernels``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

import repro.obs as obs
import repro.schemes.base as schemes_base
from repro.conformance.streaming import Watchdog
from repro.core.addressing import AddressLayer
from repro.core.graph import MemoryGraph
from repro.gf.gf2m import set_op_sink
from repro.gf.opcount import GFOpSink
from repro.kvstore.store import ParallelKVStore
from repro.mpc.memory import SharedCopyStore
from repro.obs.stream import EventBus
from repro.pram.machine import PRAM
from repro.schemes.base import MemoryScheme
from repro.schemes.pp_adapter import PPAdapter
from repro.service.batcher import ServiceCore
from repro.service.shards import ShardedKV

__all__ = [
    "LAYER_METRICS",
    "LayerTracer",
    "TARGETS",
    "assert_unpatched",
    "layer_metrics",
]

_MARK = "__perfbench_span__"


def _arg_len(pos: int) -> Callable[[tuple, Any], int]:
    return lambda args, out: len(args[pos])


def _one(args: tuple, out: Any) -> int:
    return 1


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it lives and what a call's work is."""

    owner: Any
    attr: str
    layer: str
    #: work units of one call, from its arguments and result
    size: Callable[[tuple, Any], int]
    #: the first call opens the attribution window
    opens_window: bool = False
    #: each call closes one round (served) or step (PRAM)
    ends_round: bool = False

    @property
    def name(self) -> str:
        """``Class.method``, or ``package.module.function``."""
        return f"{self.owner.__name__}.{self.attr}"


TARGETS: tuple[Target, ...] = (
    Target(ServiceCore, "submit_batch", "service.batcher", _arg_len(1),
           opens_window=True),
    Target(ServiceCore, "run_round", "service.batcher",
           lambda args, out: out.admitted if out is not None else 0,
           ends_round=True),
    Target(ShardedKV, "route_ints", "service.shards", _arg_len(1)),
    Target(ShardedKV, "shard_get", "service.shards", _arg_len(2)),
    Target(ShardedKV, "shard_put", "service.shards", _arg_len(2)),
    Target(ShardedKV, "shard_delete", "service.shards", _arg_len(2)),
    Target(ParallelKVStore, "batch_get", "kvstore", _arg_len(1)),
    Target(ParallelKVStore, "batch_put", "kvstore", _arg_len(1)),
    Target(ParallelKVStore, "batch_delete", "kvstore", _arg_len(1)),
    Target(MemoryScheme, "access", "schemes", _arg_len(1)),
    Target(PPAdapter, "placement", "schemes", _arg_len(1)),
    Target(PPAdapter, "slots", "schemes", _arg_len(1)),
    Target(AddressLayer, "vunrank", "core.addressing", _arg_len(1)),
    Target(AddressLayer, "vslots", "core.addressing", _arg_len(2)),
    Target(MemoryGraph, "vgamma_variables", "core.graph",
           lambda args, out: len(out)),
    # patched where it is imported: MemoryScheme.access calls the name
    # bound in repro.schemes.base.  Its work unit is MPC iterations.
    Target(schemes_base, "run_access_protocol", "core.protocol",
           lambda args, out: out.total_iterations),
    Target(SharedCopyStore, "read", "mpc", _one),
    Target(SharedCopyStore, "write", "mpc", _one),
    Target(obs, "publish", "obs", _one),
    Target(EventBus, "publish", "obs", _one),
    Target(Watchdog, "poll", "conformance.streaming",
           lambda args, out: out),
    Target(Watchdog, "snapshot", "conformance.streaming", _one),
    Target(PRAM, "parallel_read", "pram", _arg_len(1),
           opens_window=True, ends_round=True),
    Target(PRAM, "parallel_write", "pram", _arg_len(1),
           opens_window=True, ends_round=True),
)

_INDEX = {t.name: i for i, t in enumerate(TARGETS)}
_PROTOCOL = "repro.schemes.base.run_access_protocol"


def assert_unpatched() -> None:
    """Raise if any :data:`TARGETS` function is still wrapped."""
    for t in TARGETS:
        if getattr(vars(t.owner)[t.attr], _MARK, False):
            raise RuntimeError(f"{t.name} is still wrapped by the tracer")


class LayerTracer:
    """Context manager: wrap every target for one pass, then restore.

    Spans are kept in memory as ``[target, parent, round, start, end,
    size]`` rows; :func:`layer_metrics` turns them into per-layer
    numbers after the pass.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.round = 0
        self.gf = GFOpSink()
        self.gf_at_window = GFOpSink()
        #: the service the pass built, and its round results in order
        self.core: ServiceCore | None = None
        self.round_results: list = []
        self._stack = [-1]
        self._saved: list[tuple[Any, str, Any]] = []
        self._prev_sink: list[GFOpSink | None] = []

    def __enter__(self) -> "LayerTracer":
        try:
            for i, t in enumerate(TARGETS):
                orig = vars(t.owner)[t.attr]
                setattr(t.owner, t.attr, self._wrap(i, t, orig))
                self._saved.append((t.owner, t.attr, orig))
            self._prev_sink.append(set_op_sink(self.gf))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        if self._prev_sink:
            set_op_sink(self._prev_sink.pop())

    def _open_window(self) -> None:
        self.round = 1
        self.gf_at_window.merge(self.gf)

    def _wrap(self, tid: int, target: Target, fn: Callable) -> Callable:
        spans, stack, size = self.spans, self._stack, target.size
        is_run_round = target.name == "ServiceCore.run_round"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if target.opens_window and self.round == 0:
                self._open_window()
            rec = [tid, stack[-1], self.round, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                rec[3] = t0
                stack.pop()
            rec[5] = size(args, out)
            if target.ends_round:
                self.round += 1
            if is_run_round:
                self.core = args[0]
                if out is not None:
                    self.round_results.append(out)
            return out

        setattr(wrapper, _MARK, True)
        return wrapper


#: per-layer metric name -> unit, in report order.  The comment above
#: each group names the end-to-end metric (and workload) it should move.
LAYER_METRICS: dict[str, str] = {
    # service.batcher -> latency on serve-zipf-hot
    "batcher.submit_us_per_op": "us",
    "batcher.round_self_us_per_op": "us",
    "batcher.wait_ms_per_op": "ms",
    "batcher.fill_ratio": "ratio",
    "batcher.combine_ratio": "ratio",
    # service.shards -> ops_per_s on both served workloads (small)
    "shards.route_us_per_op": "us",
    "shards.calls_per_round": "count",
    # service.loadgen: the load loop's own cost, so a saving cannot hide in it
    "loadgen.self_us_per_op": "us",
    # kvstore -> ops_per_s and mpc_iters_per_op on serve-zipf-hot;
    # zero on pram-kernels
    "kvstore.self_us_per_key": "us",
    "kvstore.accesses_per_call": "count",
    # schemes -> ops_per_s on both workloads (2.0 unranks per access today)
    "scheme.self_us_per_var": "us",
    "scheme.vunrank_per_access": "count",
    # core.addressing, core.graph -> ops_per_s, largest on pram-kernels
    "addressing.unrank_us_per_var": "us",
    "addressing.gamma_us_per_var": "us",
    "addressing.slot_us_per_var": "us",
    # gf -> ops_per_s on pram-kernels first
    "gf.mul_per_var": "count",
    "gf.dlog_per_var": "count",
    # core.protocol -> mpc_iters_per_op everywhere
    "protocol.self_us_per_var": "us",
    "protocol.iters_per_access": "count",
    "protocol.vars_per_access": "count",
    # mpc -> ops_per_s on pram-kernels
    "mpc.memory_us_per_var": "us",
    # obs -> served workloads only
    "obs.events_per_op": "count",
    "obs.publish_us_per_event": "us",
    # conformance.streaming -> ops_per_s and latency_tail_ms on
    # serve-zipf-hot, none on pram-kernels
    "watchdog.us_per_event": "us",
    "watchdog.peak_state": "count",
    # pram -> ops_per_s on pram-kernels
    "pram.self_us_per_step": "us",
    "pram.vars_per_step": "count",
    # the trace itself: attributed share of wall time, and its cost
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


def _div(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0


def layer_metrics(
    tr: LayerTracer, ops: int, wall: float, round_capacity: int
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, and self seconds by layer.

    ``ops`` is the pass's completed requests (or PRAM processor
    requests) and ``wall`` its measured window in seconds.
    ``trace.overhead_frac`` needs untraced passes; the runner fills it.
    """
    rows = np.asarray(tr.spans, dtype=np.float64).reshape(-1, 6)
    tid = rows[:, 0].astype(np.int64)
    parent = rows[:, 1].astype(np.int64)
    dur = rows[:, 4] - rows[:, 3]
    size = rows[:, 5]
    ends = np.isin(tid, [i for i, t in enumerate(TARGETS) if t.ends_round])
    w_end = rows[ends & (rows[:, 2] >= 1), 4].max() if ends.any() else 0.0
    win = (rows[:, 2] >= 1) & (rows[:, 4] <= w_end)
    child = np.zeros(len(rows))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    def sel(*names: str) -> np.ndarray:
        return win & np.isin(tid, [_INDEX[n] for n in names])

    def self_s(*names: str) -> float:
        return float(self_t[sel(*names)].sum())

    def count(*names: str) -> int:
        return int(sel(*names).sum())

    def total(*names: str) -> float:
        return float(size[sel(*names)].sum())

    def under(names: tuple[str, ...], ancestors: tuple[str, ...]) -> np.ndarray:
        """Mask of ``names`` spans with an ``ancestors`` span above."""
        want = {_INDEX[n] for n in ancestors}
        out = np.zeros(len(rows), dtype=bool)
        for i in np.nonzero(sel(*names))[0]:
            p = parent[i]
            while p >= 0 and tid[p] not in want:
                p = parent[p]
            out[i] = p >= 0
        return out

    access = ("MemoryScheme.access",)
    kv = ("ParallelKVStore.batch_get", "ParallelKVStore.batch_put",
          "ParallelKVStore.batch_delete")
    shard_ops = ("ShardedKV.shard_get", "ShardedKV.shard_put",
                 "ShardedKV.shard_delete")
    steps = ("PRAM.parallel_read", "PRAM.parallel_write")
    store = ("SharedCopyStore.read", "SharedCopyStore.write")
    publish = ("repro.obs.publish", "EventBus.publish")
    watch = ("Watchdog.poll", "Watchdog.snapshot")
    n_vars = total(*access)
    n_access = count(*access)
    n_events = count("EventBus.publish")
    rounds = count("ServiceCore.run_round")
    admitted = total("ServiceCore.run_round")

    wait = []
    run_rounds = np.nonzero(sel("ServiceCore.run_round"))[0]
    for res, i in zip(tr.round_results, run_rounds):
        wait.append(np.asarray(res.latency) - dur[i])
    peak_state = 0
    if tr.core is not None and tr.core.watchdog is not None:
        peak_state = tr.core.watchdog.registry.gauge("watch.state_size").value

    layer_self: dict[str, float] = {}
    for i, t in enumerate(TARGETS):
        s = float(self_t[win & (tid == i)].sum())
        layer_self[t.layer] = layer_self.get(t.layer, 0.0) + s
    outside = wall - float(dur[win & ~has_parent].sum())

    us = 1e6
    m = {
        "batcher.submit_us_per_op":
            us * _div(self_s("ServiceCore.submit_batch"), ops),
        "batcher.round_self_us_per_op":
            us * _div(self_s("ServiceCore.run_round"), ops),
        "batcher.wait_ms_per_op":
            1e3 * float(np.concatenate(wait).mean()) if wait else 0.0,
        "batcher.fill_ratio": _div(admitted, rounds * round_capacity),
        "batcher.combine_ratio": 1.0 - _div(total(*shard_ops), admitted)
        if admitted else 0.0,
        "shards.route_us_per_op":
            us * _div(self_s("ShardedKV.route_ints"), ops),
        "shards.calls_per_round": _div(count(*shard_ops), rounds),
        "loadgen.self_us_per_op": us * _div(outside, ops) if rounds else 0.0,
        "kvstore.self_us_per_key": us * _div(self_s(*kv), total(*kv)),
        "kvstore.accesses_per_call":
            _div(int(under(access, kv).sum()), count(*kv)),
        "scheme.self_us_per_var": us * _div(
            self_s(*access, "PPAdapter.placement", "PPAdapter.slots"), n_vars
        ),
        "scheme.vunrank_per_access":
            _div(count("AddressLayer.vunrank"), n_access),
        "addressing.unrank_us_per_var":
            us * _div(self_s("AddressLayer.vunrank"), n_vars),
        "addressing.gamma_us_per_var":
            us * _div(self_s("MemoryGraph.vgamma_variables"), n_vars),
        "addressing.slot_us_per_var":
            us * _div(self_s("AddressLayer.vslots"), n_vars),
        "gf.mul_per_var": _div(tr.gf.mul - tr.gf_at_window.mul, n_vars),
        "gf.dlog_per_var": _div(tr.gf.dlog - tr.gf_at_window.dlog, n_vars),
        "protocol.self_us_per_var":
            us * _div(self_s(_PROTOCOL), n_vars),
        "protocol.iters_per_access": _div(
            total(_PROTOCOL), count(_PROTOCOL)
        ),
        "protocol.vars_per_access": _div(n_vars, n_access),
        "mpc.memory_us_per_var": us * _div(self_s(*store), n_vars),
        "obs.events_per_op": _div(n_events, ops),
        "obs.publish_us_per_event": us * _div(self_s(*publish), n_events),
        "watchdog.us_per_event":
            us * _div(self_s(*watch), total("Watchdog.poll")),
        "watchdog.peak_state": float(peak_state),
        "pram.self_us_per_step": us * _div(self_s(*steps), count(*steps)),
        "pram.vars_per_step": _div(
            float(size[under(access, steps)].sum()), count(*steps)
        ),
        "trace.coverage": _div(sum(layer_self.values()), wall),
        "trace.overhead_frac": 0.0,
    }
    caller = "service.loadgen" if rounds else "pram.algorithms"
    layer_self[caller] = outside
    return m, layer_self
