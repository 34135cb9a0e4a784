"""Trace-based PRAM-consistency checking of recorded memory operations.

The paper's Theorem on majority-rule semantics promises that replicated
memory is indistinguishable from a single serial memory.  For the
batched MPC model that contract specializes to *sequential consistency
per variable* over the recorded trace (the per-process discipline of
Wei et al.'s PRAM-trace verification, collapsed by the model's total
round order):

* operations are totally ordered by ``(round, writes-before-reads,
  seq)`` -- every batch carries one strictly-increasing logical
  timestamp, so the protocol's arbitration order is recoverable from
  the trace alone;
* a read of variable ``v`` must return the value of the *winning* write
  to ``v`` with the largest round not after the read's round, or ``-1``
  when ``v`` was never written;
* two writes to ``v`` in the same round are arbitrated exactly like the
  protocol arbitrates copies: freshest timestamp first, then largest
  value -- the ``(stamp << 32) | value`` packing order of
  :func:`repro.core.protocol.run_access_protocol`, which is what the
  module-level policies of :mod:`repro.mpc.arbitration` funnel into;
* an operation flagged ``lost`` failed its quorum and was *reported*:
  its value is invalid by contract.  A lost **write** leaves the
  variable indeterminate (some copies may carry the new stamp), so
  until the next successful write a read may legitimately return either
  the old or the attempted value -- the checker tracks that taint set
  instead of guessing;
* every other divergence is a violation, classified as ``stale-read``
  (an older write's value -- the silent failure mode a stale majority
  produces), ``dropped-read`` (written state read back as empty) or
  ``phantom-read`` (a value never written to that variable).

Violations identify the offending operation by (processor, round,
variable) and the report is machine-readable
(:meth:`ViolationReport.to_dict`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.conformance.recorder import (
    KvOp,
    MemOp,
    kv_ops_from_events,
    mem_ops_from_events,
)

__all__ = [
    "Violation",
    "ViolationReport",
    "ConsistencyChecker",
    "MemOpCore",
    "KvOpCore",
]


@dataclass(frozen=True)
class Violation:
    """One consistency violation, anchored to the offending operation."""

    kind: str
    var: str
    round: int
    proc: int
    expected: int
    observed: int

    def describe(self) -> str:
        """Human-readable one-liner."""
        return (
            f"{self.kind}: processor {self.proc}, round {self.round}, "
            f"variable {self.var}: expected {self.expected}, "
            f"read {self.observed}"
        )


@dataclass
class ViolationReport:
    """Machine-readable outcome of one checker pass."""

    violations: list[Violation] = field(default_factory=list)
    reads_checked: int = 0
    writes_seen: int = 0
    lost_exempt: int = 0
    tainted_accepted: int = 0
    kv_checked: int = 0
    truncated: int = 0  # violations beyond the cap, not listed

    @property
    def ok(self) -> bool:
        """True iff the trace is consistent."""
        return not self.violations and not self.truncated

    @property
    def n_violations(self) -> int:
        """Total violations observed (listed + truncated)."""
        return len(self.violations) + self.truncated

    def merge(self, other: "ViolationReport") -> "ViolationReport":
        """Fold another report into this one (returns self)."""
        self.violations.extend(other.violations)
        self.reads_checked += other.reads_checked
        self.writes_seen += other.writes_seen
        self.lost_exempt += other.lost_exempt
        self.tainted_accepted += other.tainted_accepted
        self.kv_checked += other.kv_checked
        self.truncated += other.truncated
        return self

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "schema": 1,
            "ok": self.ok,
            "reads_checked": self.reads_checked,
            "writes_seen": self.writes_seen,
            "lost_exempt": self.lost_exempt,
            "tainted_accepted": self.tainted_accepted,
            "kv_checked": self.kv_checked,
            "truncated": self.truncated,
            "violations": [asdict(v) for v in self.violations],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ViolationReport":
        """Rehydrate a report from its :meth:`to_dict` form."""
        return cls(
            violations=[Violation(**v) for v in d.get("violations", [])],
            reads_checked=int(d.get("reads_checked", 0)),
            writes_seen=int(d.get("writes_seen", 0)),
            lost_exempt=int(d.get("lost_exempt", 0)),
            tainted_accepted=int(d.get("tainted_accepted", 0)),
            kv_checked=int(d.get("kv_checked", 0)),
            truncated=int(d.get("truncated", 0)),
        )

    def render(self) -> str:
        """The report as markdown (verdict line + violations table)."""
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"**Consistency: {verdict}** -- {self.n_violations} "
            f"violation(s) over {self.reads_checked} checked read(s), "
            f"{self.writes_seen} write(s), {self.kv_checked} kv op(s); "
            f"{self.lost_exempt} lost op(s) exempt.",
        ]
        if self.violations:
            lines += [
                "",
                "| kind | processor | round | variable | expected | observed |",
                "|------|-----------|-------|----------|----------|----------|",
            ]
            for v in self.violations:
                lines.append(
                    f"| {v.kind} | {v.proc} | {v.round} | {v.var} | "
                    f"{v.expected} | {v.observed} |"
                )
            if self.truncated:
                lines.append(f"| ... {self.truncated} more ... | | | | | |")
        return "\n".join(lines)


#: reads sort after writes within a round: a batch's timestamp is the
#: order its writes become visible in
_OP_RANK = {"write": 0, "read": 1}


class MemOpCore:
    """Incremental serial-memory-per-variable verifier.

    Feed :class:`~repro.conformance.recorder.MemOp` records **in
    arbitration order** -- sorted by ``(round, writes-before-reads,
    seq)`` -- and each call classifies the operation immediately.  The
    batch :class:`ConsistencyChecker` sorts a whole trace and feeds it
    through one core; the streaming checker
    (:mod:`repro.conformance.streaming`) feeds closed round-windows and
    calls :meth:`retire` so retained state stays bounded.

    State per variable: the current winning write (kept for the
    variable's lifetime), the set of past written values with their last
    write round (prunable -- it only classifies stale vs phantom), and
    the post-lost-write taint set (cleared by the next successful
    write).  The entry count across all three is kept up to date as it
    changes, and a round -> written-variables index tells :meth:`retire`
    which variables can lose entries, so neither touches the rest.
    """

    def __init__(
        self,
        max_violations: int = 100,
        on_violation: "Callable[[Violation], None] | None" = None,
    ):
        if max_violations < 1:
            raise ValueError("max_violations must be >= 1")
        self.max_violations = max_violations
        self.on_violation = on_violation
        self.report = ViolationReport()
        self._cur: dict[int, tuple[int, int]] = {}  # var -> (round, value)
        self._past: dict[int, dict[int, int]] = {}  # var -> value -> round
        self._taint: dict[int, set[int]] = {}  # var -> acceptable values
        self._entries = 0  # len(_cur) + entries of _past and _taint
        self._written: dict[int, set[int]] = {}  # round -> vars to revisit

    def feed(self, o: MemOp) -> Violation | None:
        """Classify one operation; returns the violation, if any."""
        rep = self.report
        if o.op == "write":
            rep.writes_seen += 1
            var = o.var
            vals = self._past.setdefault(var, {})
            if o.value not in vals:
                self._entries += 1
            vals[o.value] = o.round
            self._written.setdefault(o.round, set()).add(var)
            have = self._cur.get(var)
            if o.lost:
                # indeterminate: old winner and attempted value both
                # acceptable until the next successful write
                taint = self._taint.setdefault(var, set())
                before = len(taint)
                taint.update({have[1] if have else -1, o.value})
                self._entries += len(taint) - before
                rep.lost_exempt += 1
                return None
            taint = self._taint.pop(var, None)
            if taint is not None:
                self._entries -= len(taint)
            if have is None:
                self._entries += 1
                self._cur[var] = (o.round, o.value)
            elif (
                o.round > have[0]
                # same-round arbitration: larger value wins, the
                # protocol's (stamp << 32) | value packing order
                or (o.round == have[0] and o.value > have[1])
            ):
                self._cur[var] = (o.round, o.value)
                # the old winner loses its retire exemption: revisit
                # the variable once its winning round is behind the
                # horizon (the bucket may have been popped already)
                self._written.setdefault(have[0], set()).add(var)
            return None
        # -- read ----------------------------------------------------
        if o.lost:
            rep.lost_exempt += 1
            return None
        rep.reads_checked += 1
        have = self._cur.get(o.var)
        expected = have[1] if have is not None else -1
        if o.value == expected:
            return None
        accept = self._taint.get(o.var)
        if accept is not None and o.value in accept:
            rep.tainted_accepted += 1
            return None
        if expected == -1:
            kind = "phantom-read"
        elif o.value == -1:
            kind = "dropped-read"
        elif o.value in self._past.get(o.var, ()):
            kind = "stale-read"
        else:
            kind = "phantom-read"
        v = Violation(
            kind=kind, var=str(o.var), round=o.round, proc=o.proc,
            expected=expected, observed=o.value,
        )
        self._record(v)
        return v

    def retire(self, horizon: int) -> None:
        """Drop past-value entries last written before round ``horizon``.

        The current winner and the taint set survive (they define
        correctness, not classification), so retiring only narrows the
        stale-vs-phantom distinction for reads that reach back further
        than the caller's window -- never the violation/no-violation
        verdict itself.  Only variables written (or displaced as winner)
        in a round below ``horizon`` are visited, so the cost is
        O(writes in the retired rounds), not O(variables).
        """
        due = [r for r in self._written if r < horizon]
        if not due:
            return
        visit: set[int] = set()
        for r in due:
            visit |= self._written.pop(r)
        for var in visit:
            vals = self._past.get(var)
            if vals is None:
                continue
            keep = {v: r for v, r in vals.items() if r >= horizon}
            winner = self._cur.get(var)
            if winner is not None and winner[1] not in keep:
                keep[winner[1]] = winner[0]
            self._entries -= len(vals) - len(keep)
            if keep:
                self._past[var] = keep
            else:
                del self._past[var]

    @property
    def state_size(self) -> int:
        """Retained entries across all per-variable structures."""
        return self._entries

    def _record(self, v: Violation) -> None:
        rep = self.report
        if len(rep.violations) < self.max_violations:
            rep.violations.append(v)
        else:
            rep.truncated += 1
        if self.on_violation is not None:
            self.on_violation(v)


class KvOpCore:
    """Incremental dict-semantics verifier for ``kv.op`` streams.

    Feed :class:`~repro.conformance.recorder.KvOp` records sorted by
    ``(round, seq)``.  State is the live key->value model -- already
    O(live keys), so :meth:`retire` exists only for interface symmetry.
    """

    def __init__(
        self,
        max_violations: int = 100,
        on_violation: "Callable[[Violation], None] | None" = None,
    ):
        if max_violations < 1:
            raise ValueError("max_violations must be >= 1")
        self.max_violations = max_violations
        self.on_violation = on_violation
        self.report = ViolationReport()
        self._model: dict[str, int] = {}

    def feed(self, o: KvOp) -> Violation | None:
        """Apply one kv operation to the model; returns any violation."""
        rep = self.report
        rep.kv_checked += 1
        if o.op == "put":
            self._model[o.key] = o.value
            return None
        if o.op == "delete":
            self._model.pop(o.key, None)
            return None
        expected = self._model.get(o.key, -1)
        if o.value == expected:
            return None
        kind = "kv-stale-get" if expected != -1 else "kv-phantom-get"
        v = Violation(
            kind=kind, var=o.key, round=o.round, proc=-1,
            expected=expected, observed=o.value,
        )
        if len(rep.violations) < self.max_violations:
            rep.violations.append(v)
        else:
            rep.truncated += 1
        if self.on_violation is not None:
            self.on_violation(v)
        return v

    def retire(self, horizon: int) -> None:
        """No-op: the kv model is already bounded by live keys."""

    @property
    def state_size(self) -> int:
        """Live keys in the model."""
        return len(self._model)


class ConsistencyChecker:
    """Verify recorded traces against serial-memory-per-variable semantics.

    Parameters
    ----------
    max_violations:
        Cap on *listed* violations (the total is still counted), so a
        completely broken trace yields a bounded report.
    """

    def __init__(self, max_violations: int = 100):
        if max_violations < 1:
            raise ValueError("max_violations must be >= 1")
        self.max_violations = max_violations

    # -- shared-memory trace -----------------------------------------------

    def check_mem_ops(self, ops: list[MemOp]) -> ViolationReport:
        """Check a sequence of :class:`MemOp` records (any order; the
        trace's round/seq fields define the arbitration order)."""
        core = MemOpCore(max_violations=self.max_violations)
        for o in sorted(ops, key=lambda o: (o.round, _OP_RANK[o.op], o.seq)):
            core.feed(o)
        return core.report

    # -- kv trace ----------------------------------------------------------

    def check_kv_ops(self, ops: list[KvOp]) -> ViolationReport:
        """Check a kvstore trace against plain dict semantics."""
        core = KvOpCore(max_violations=self.max_violations)
        for o in sorted(ops, key=lambda o: (o.round, o.seq)):
            core.feed(o)
        return core.report

    # -- whole trace -------------------------------------------------------

    def check_events(self, events) -> ViolationReport:
        """Check every discipline a trace carries (``mem.op`` events
        against serial memory, ``kv.op`` events against a dict)."""
        rep = self.check_mem_ops(mem_ops_from_events(events))
        return rep.merge(self.check_kv_ops(kv_ops_from_events(events)))
