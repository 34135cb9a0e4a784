"""Per-operation memory trace recording for conformance checking.

The protocol engine emits one ``mem.op`` trace event per request of
every read/write batch (:func:`repro.core.protocol.run_access_protocol`
with ``var_ids`` threaded down by both scheme layers), and the parallel
KV store emits one ``kv.op`` event per key of every completed batch
operation -- both only while a recording tracer is installed, behind the
same single :func:`repro.obs.enabled` guard as the rest of the
observability layer, so a run without a tracer pays nothing.

:class:`TraceRecorder` is a :class:`~repro.obs.trace.RecordingTracer`
that knows how to project those events back out as typed operation
records (:class:`MemOp` / :class:`KvOp`) for the
:class:`~repro.conformance.checker.ConsistencyChecker`.  Because it *is*
a tracer, its JSONL output interleaves the memory operations with the
ordinary ``protocol.*`` / ``kvstore.*`` spans -- one file tells the
whole story, and :func:`load_mem_ops` recovers the operations from any
trace file written by any tracer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import repro.obs as _obs
from repro.obs.trace import RecordingTracer, read_jsonl

__all__ = [
    "MEM_EVENT",
    "KV_EVENT",
    "MemOp",
    "KvOp",
    "TraceRecorder",
    "record",
    "mem_op_from_event",
    "kv_op_from_event",
    "mem_ops_from_events",
    "kv_ops_from_events",
    "load_mem_ops",
    "load_kv_ops",
]

#: trace-event name of a per-variable protocol operation
MEM_EVENT = "mem.op"
#: trace-event name of a per-key kvstore operation
KV_EVENT = "kv.op"


@dataclass(frozen=True)
class MemOp:
    """One recorded shared-memory operation (a single request of a batch).

    ``round`` is the batch's logical timestamp -- the total order the
    protocol arbitrates against; ``proc`` is the requesting position
    within the batch (the cluster member in charge of the variable);
    ``phase`` is the protocol phase that served it.  A ``lost`` read or
    write failed its quorum and was *reported* (its value is invalid by
    contract, not silently wrong).
    """

    op: str
    var: int
    value: int
    round: int
    proc: int
    phase: int
    lost: bool
    seq: int

    @property
    def where(self) -> tuple[int, int, int]:
        """The (processor, round, variable) identity of this operation."""
        return (self.proc, self.round, self.var)


@dataclass(frozen=True)
class KvOp:
    """One recorded key-value store operation (a single key of a batch)."""

    op: str
    key: str
    value: int
    round: int
    seq: int


def mem_op_from_event(e: dict) -> MemOp:
    """One ``mem.op`` event as a :class:`MemOp` record."""
    return MemOp(
        op=e["op"],
        var=int(e["var"]),
        value=int(e["value"]),
        round=int(e["round"]),
        proc=int(e["proc"]),
        phase=int(e.get("phase", 0)),
        lost=bool(e.get("lost", False)),
        seq=int(e["seq"]),
    )


def kv_op_from_event(e: dict) -> KvOp:
    """One ``kv.op`` event as a :class:`KvOp` record."""
    return KvOp(
        op=e["op"],
        key=str(e["key"]),
        value=int(e["value"]),
        round=int(e["round"]),
        seq=int(e["seq"]),
    )


def mem_ops_from_events(events) -> list[MemOp]:
    """Project the ``mem.op`` events of a trace into :class:`MemOp`
    records (other events pass through untouched)."""
    return [mem_op_from_event(e) for e in events if e.get("name") == MEM_EVENT]


def kv_ops_from_events(events) -> list[KvOp]:
    """Project the ``kv.op`` events of a trace into :class:`KvOp` records."""
    return [kv_op_from_event(e) for e in events if e.get("name") == KV_EVENT]


def load_mem_ops(path: str) -> list[MemOp]:
    """Memory operations of a JSONL trace file (any tracer's output)."""
    return mem_ops_from_events(read_jsonl(path))


def load_kv_ops(path: str) -> list[KvOp]:
    """KV operations of a JSONL trace file."""
    return kv_ops_from_events(read_jsonl(path))


class TraceRecorder(RecordingTracer):
    """A recording tracer specialized for memory-conformance traces.

    Use :func:`record` (or install via :func:`repro.obs.set_tracer`)
    around the accesses under test, then hand :meth:`mem_ops` /
    :meth:`kv_ops` to the checker, or persist everything with the
    inherited :meth:`~repro.obs.trace.RecordingTracer.write_jsonl`.
    """

    def mem_ops(self) -> list[MemOp]:
        """All memory operations recorded so far, in emit order."""
        return mem_ops_from_events(self.events)

    def kv_ops(self) -> list[KvOp]:
        """All kvstore operations recorded so far, in emit order."""
        return kv_ops_from_events(self.events)

    def n_mem_ops(self) -> int:
        """Count of recorded ``mem.op`` events (cheap, no projection)."""
        return sum(1 for e in self.events if e.get("name") == MEM_EVENT)

    def __repr__(self) -> str:
        return (
            f"TraceRecorder({len(self.events)} events, "
            f"{self.n_mem_ops()} mem ops)"
        )


@contextmanager
def record():
    """Install a fresh :class:`TraceRecorder` for a block.

    Yields the recorder; the previously installed tracer (usually the
    no-op default) is restored on exit::

        with record() as rec:
            scheme.write(idx, values=vals, store=store, time=1)
            scheme.read(idx, store=store, time=2)
        report = ConsistencyChecker().check_mem_ops(rec.mem_ops())
    """
    rec = TraceRecorder()
    prev = _obs.set_tracer(rec)
    try:
        yield rec
    finally:
        _obs.set_tracer(prev if prev.enabled else None)
