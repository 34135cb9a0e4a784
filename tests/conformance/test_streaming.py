"""Tests for the streaming checker, the watchdog, and the online canary.

The contract under test: the incremental windowed checker must agree
with the whole-trace batch checker on every verdict (same violations,
pinned to the same (processor, round, variable)) while holding state
bounded by the window, not the trace length -- and the watchdog built on
it must flag the q/2+1 stale-majority attack while the run is still
going.
"""

import random

import pytest

from repro import obs
from repro.conformance.checker import ConsistencyChecker, MemOpCore
from repro.conformance.recorder import KvOp, MemOp, record
from repro.conformance.streaming import (
    SCHEME_KEYS,
    StreamingChecker,
    Watchdog,
    run_watchdog_canary,
    scheme_by_key,
    stream_fuzz,
)
from repro.faults.attacks import build_stale_majority, payload_values
from repro.obs.stream import EventBus
from repro.workloads.generators import op_batches


@pytest.fixture(autouse=True)
def clean_bus():
    obs.set_bus(None)
    yield
    obs.set_bus(None)


def mem(op, var, value, round_, proc=0, lost=False, seq=0):
    return MemOp(
        op=op, var=var, value=value, round=round_, proc=proc, phase=0,
        lost=lost, seq=seq,
    )


def violation_keys(report):
    return sorted(
        (v.kind, v.proc, v.round, int(v.var)) for v in report.violations
    )


class TestStreamingChecker:
    def test_window_validated(self):
        with pytest.raises(ValueError, match="window"):
            StreamingChecker(window=0)

    def test_clean_sequence(self):
        sc = StreamingChecker(window=2)
        sc.feed_mem(mem("write", 7, 1, 1, seq=1))
        sc.feed_mem(mem("read", 7, 1, 2, seq=2))
        rep = sc.finish()
        assert rep.ok
        assert sc.retired_through == sc.high == 2

    def test_stale_read_flagged_when_round_closes(self):
        hits = []
        sc = StreamingChecker(window=2, on_violation=hits.append)
        sc.feed_mem(mem("write", 7, 1, 1, seq=1))
        sc.feed_mem(mem("write", 7, 2, 2, seq=2))
        sc.feed_mem(mem("read", 7, 1, 3, proc=4, seq=3))  # stale answer
        assert not hits  # round 3 still open
        sc.feed_mem(mem("write", 9, 5, 6, seq=4))  # advances past 3+window
        assert len(hits) == 1
        v = hits[0]
        assert (v.kind, v.proc, v.round, int(v.var)) == ("stale-read", 4, 3, 7)

    def test_out_of_order_within_window_is_resorted(self):
        # reads of a round arriving before its writes must still check
        # against that round's writes (arbitration order, not arrival)
        sc = StreamingChecker(window=4)
        sc.feed_mem(mem("read", 3, 8, 2, seq=5))
        sc.feed_mem(mem("write", 3, 8, 2, seq=4))
        sc.feed_mem(mem("write", 3, 7, 1, seq=1))
        assert sc.finish().ok

    def test_late_arrival_counted_not_checked(self):
        sc = StreamingChecker(window=1)
        sc.feed_mem(mem("write", 1, 1, 1, seq=1))
        sc.feed_mem(mem("write", 1, 2, 5, seq=2))  # closes rounds <= 4
        assert sc.retired_through == 4
        sc.feed_mem(mem("read", 1, 999, 2, seq=3))  # round 2 already closed
        assert sc.late_dropped == 1
        assert sc.finish().ok

    def test_kv_stream(self):
        sc = StreamingChecker(window=2)
        sc.feed_kv(KvOp(op="put", key="a", value=1, round=1, seq=1))
        sc.feed_kv(KvOp(op="get", key="a", value=2, round=2, seq=2))
        rep = sc.finish()
        assert not rep.ok
        assert rep.violations[0].kind == "kv-stale-get"

    def test_feed_event_routes_and_ignores_others(self):
        sc = StreamingChecker()
        sc.feed_event(
            {"name": "mem.op", "op": "write", "var": 1, "value": 2,
             "round": 1, "proc": 0, "phase": 0, "lost": False, "seq": 1}
        )
        sc.feed_event({"name": "protocol.health", "round": 1})
        assert sc.events_fed == 1
        assert sc.finish().ok

    def test_state_retired_behind_window(self):
        # 500 rewrites of one variable: past-value history older than
        # the window must be retired, so peak state stays near the
        # window size, not the write count
        sc = StreamingChecker(window=4)
        for t in range(1, 500):
            sc.feed_mem(mem("write", 1, t, t, seq=t))
        assert sc.peak_state < 4 * sc.window
        assert sc.finish().ok

    def test_verdict_independent_of_window(self):
        ops = [
            mem("write", 1, 10, 1, seq=1),
            mem("write", 1, 20, 2, seq=2),
            mem("read", 1, 10, 30, proc=2, seq=3),  # stale, far later
        ]
        for w in (1, 4, 64):
            sc = StreamingChecker(window=w)
            for o in ops:
                sc.feed_mem(o)
            rep = sc.finish()
            assert not rep.ok, f"window={w} missed the violation"
            v = rep.violations[0]
            assert (v.proc, v.round, int(v.var)) == (2, 30, 1)
        # naming precision: inside the window the old value is *named*
        # stale; far outside it the divergence degrades to phantom-read
        wide = StreamingChecker(window=64)
        narrow = StreamingChecker(window=1)
        for o in ops:
            wide.feed_mem(o)
            narrow.feed_mem(o)
        assert wide.finish().violations[0].kind == "stale-read"
        assert narrow.finish().violations[0].kind == "phantom-read"


def replay_recorded(scheme, total_ops, seed, max_batch=32):
    """One seeded workload -> (recorded trace ops, scheme)."""
    plan = op_batches(
        scheme.M, total_ops, seed=seed, max_batch=min(max_batch, scheme.M)
    )
    store = scheme.make_store()
    with record() as rec:
        for t, (kind, idx) in enumerate(plan, start=1):
            if kind == "write":
                scheme.write(
                    idx, values=payload_values(t, idx), store=store, time=t
                )
            else:
                scheme.read(idx, store=store, time=t)
    return rec.mem_ops()


class TestBatchParity:
    """The streaming checker's acceptance bar: identical violation sets
    (kind, proc, round, var) to the batch checker on the same trace."""

    @pytest.mark.parametrize("key", SCHEME_KEYS)
    def test_parity_on_clean_fuzz(self, key):
        scheme = scheme_by_key(key)
        ops = replay_recorded(scheme, 2000, seed=11)
        assert len(ops) >= 2000
        batch = ConsistencyChecker().check_mem_ops(ops)
        sc = StreamingChecker(window=8)
        for o in ops:
            sc.feed_mem(o)
        stream = sc.finish()
        assert violation_keys(stream) == violation_keys(batch)
        assert stream.ok and batch.ok
        assert sc.peak_state < len(ops)

    def test_parity_on_violating_trace(self):
        # the stale-majority attack trace: both checkers must flag the
        # exact same (kind, proc, round, var) set -- and it is non-empty
        attack = build_stale_majority(seed=0)
        with record() as rec:
            attack.seed_history()
            attack.go_stale()
            res = attack.read(time=3)
            for t in range(4, 10):
                attack.write_tail(time=t, values=payload_values(t, attack.idx))
        expected, silent_wrong = attack.victim_verdict(res, time=3)
        assert silent_wrong > 0
        ops = rec.mem_ops()
        batch = ConsistencyChecker().check_mem_ops(ops)
        sc = StreamingChecker(window=8)
        for o in ops:
            sc.feed_mem(o)
        stream = sc.finish()
        keys = violation_keys(stream)
        assert keys == violation_keys(batch)
        assert {("stale-read", p, r, v) for p, r, v in expected} <= set(keys)

    def test_parity_shuffled_arrival_within_rounds(self):
        # bus arrival order within a round is arbitrary; parity must
        # survive a deterministic scramble
        scheme = scheme_by_key("pp2")
        ops = replay_recorded(scheme, 600, seed=5)
        batch = ConsistencyChecker().check_mem_ops(ops)
        scrambled = sorted(ops, key=lambda o: (o.round, (o.seq * 7919) % 104729))
        sc = StreamingChecker(window=8)
        for o in scrambled:
            sc.feed_mem(o)
        assert violation_keys(sc.finish()) == violation_keys(batch)


class TestBoundedMemory:
    def test_million_ops_bounded_state(self):
        # >= 10^6 synthetic ops: peak retained state must stay under a
        # fixed window budget, orders of magnitude below the op count
        n_vars = 256
        window = 8
        sc = StreamingChecker(window=window)
        seq = 0
        total = 1_000_000
        rounds = total // n_vars
        current = [0] * n_vars
        for t in range(1, rounds + 1):
            write_round = t % 2 == 1
            for v in range(n_vars):
                seq += 1
                if write_round:
                    current[v] = t * n_vars + v
                    sc.feed_mem(mem("write", v, current[v], t, proc=v, seq=seq))
                else:
                    sc.feed_mem(mem("read", v, current[v], t, proc=v, seq=seq))
        assert sc.events_fed == rounds * n_vars
        assert sc.events_fed >= 1_000_000 - n_vars
        rep = sc.finish()
        assert rep.ok
        # budget: open-window buffer + ~2 windows of per-var past state
        budget = n_vars * 2 * window
        assert sc.peak_state <= budget, (
            f"peak state {sc.peak_state} busts the window budget {budget}"
        )


class ScanAllCore(MemOpCore):
    """Oracle core: the from-scratch state accounting the incremental
    counters replace -- a ``len()`` sum over every per-variable dict,
    and a retire that rebuilds every variable's past-value dict."""

    def retire(self, horizon):
        for var in list(self._past):
            vals = self._past[var]
            keep = {v: r for v, r in vals.items() if r >= horizon}
            winner = self._cur.get(var)
            if winner is not None and winner[1] not in keep:
                keep[winner[1]] = winner[0]
            if keep:
                self._past[var] = keep
            else:
                del self._past[var]

    @property
    def state_size(self):
        return recount_core(self)


def recount_core(core):
    return (
        len(core._cur)
        + sum(len(v) for v in core._past.values())
        + sum(len(v) for v in core._taint.values())
    )


def recount_buffered(sc):
    return sum(len(v) for v in sc._pending.values()) + sum(
        len(v) for v in sc._kv_pending.values()
    )


class ScanAllChecker(StreamingChecker):
    """Oracle streaming checker: recounts its buffer and state on every
    read, and records every size it notes for the peak."""

    def __init__(self, window):
        super().__init__(window=window)
        self._mem = ScanAllCore()
        self.noted = []

    @property
    def buffered(self):
        return recount_buffered(self)

    @property
    def state_size(self):
        return self.buffered + self._mem.state_size + self._kv.state_size

    def _note_state(self):
        self.noted.append(self.state_size)
        super()._note_state()


def random_stream(rng, n_ops, window):
    """Seeded mem/kv ops with lost reads and writes, same-round writes,
    repeated values, idle variables whose winner falls behind the
    horizon before it is displaced, and late or reordered arrivals."""
    n_vars = rng.randint(1, 10)
    weights = [rng.random() ** 3 for _ in range(n_vars)]
    head = 1
    ops = []
    for seq in range(1, n_ops + 1):
        if rng.random() < 0.3:
            head += rng.choice((1, 1, 1, 2, window + 1, 3 * window))
        r = head
        if rng.random() < 0.15:
            r = max(1, head - rng.randint(1, window + 2))
        if rng.random() < 0.1:
            kind = rng.choice(("put", "put", "delete", "get"))
            ops.append(KvOp(op=kind, key=rng.choice("abcd"),
                            value=rng.randint(-1, 4), round=r, seq=seq))
            continue
        var = rng.choices(range(n_vars), weights)[0]
        kind = "write" if rng.random() < 0.5 else "read"
        ops.append(mem(kind, var, rng.randint(-1 if kind == "read" else 0, 6),
                       r, proc=rng.randint(0, 3),
                       lost=rng.random() < 0.15, seq=seq))
    return ops


class TestIncrementalState:
    """The running entry and buffer counts, and the round-indexed retire,
    against the from-scratch recount and the scan-all retire after every
    event."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_scan_all_oracle_after_every_event(self, seed):
        rng = random.Random(seed)
        window = rng.randint(1, 5)
        sc = StreamingChecker(window=window)
        oracle = ScanAllChecker(window=window)
        for o in random_stream(rng, 500, window):
            for c in (sc, oracle):
                (c.feed_kv if isinstance(o, KvOp) else c.feed_mem)(o)
            assert sc._mem._past == oracle._mem._past
            assert sc._mem.state_size == recount_core(sc._mem)
            assert sc.buffered == recount_buffered(sc)
            assert sc.state_size == oracle.state_size
        assert sc.peak_state == oracle.peak_state == max(oracle.noted)
        assert sc.peak_buffered == oracle.peak_buffered
        assert sc.late_dropped == oracle.late_dropped
        assert sc.finish().to_dict() == oracle.finish().to_dict()
        assert sc._mem._past == oracle._mem._past
        assert sc.state_size == oracle.state_size
        assert sc.buffered == 0

    def test_displaced_winner_behind_horizon_is_retired(self):
        # var 1's winner is retired down to its exempt entry, then
        # displaced by a write the next retire does not reach: that
        # retire must still drop the old winner
        sc = StreamingChecker(window=1)
        oracle = ScanAllChecker(window=1)
        ops = [
            mem("write", 1, 5, 1, seq=1),
            mem("write", 2, 0, 10, seq=2),  # retires round 1
            mem("write", 1, 6, 20, seq=3),
            # closes round 20, where (1, 6) displaces (1, 5), then
            # retires the rounds below 20
            mem("write", 2, 0, 21, seq=4),
        ]
        for o in ops:
            sc.feed_mem(o)
            oracle.feed_mem(o)
            assert sc._mem._past == oracle._mem._past
        assert sc._mem._past[1] == {6: 20}
        assert sc.state_size == oracle.state_size


class TestWatchdog:
    def test_watchdog_flags_protocol_violation_via_bus(self):
        attack = build_stale_majority(seed=1)
        bus = EventBus()
        dog = Watchdog(bus, window=4)
        prev = obs.set_bus(bus)
        try:
            attack.seed_history()
            attack.go_stale()
            res = attack.read(time=3)
            for t in range(4, 10):
                attack.write_tail(time=t, values=payload_values(t, attack.idx))
                dog.poll()
        finally:
            obs.set_bus(prev)
        dog.finish()
        expected, silent_wrong = attack.victim_verdict(res, time=3)
        assert silent_wrong > 0
        assert dog.violations_seen >= silent_wrong
        assert not dog.ok
        snap = dog.registry.snapshot()
        assert snap["watch.violations"]["value"] == dog.violations_seen
        assert snap["watch.batches"]["value"] > 0

    def test_bounded_queue_drops_are_visible(self):
        bus = EventBus()
        dog = Watchdog(bus, queue_capacity=4)
        for i in range(10):
            bus.publish("mem.op", {
                "op": "write", "var": i, "value": 1, "round": 1,
                "proc": 0, "phase": 0, "lost": False,
            })
        dog.poll()
        assert dog.subscription.dropped == 6
        snap = dog.registry.snapshot()
        assert snap["watch.events_dropped"]["value"] == 6

    def test_detach_stops_delivery(self):
        bus = EventBus()
        dog = Watchdog(bus)
        dog.detach()
        bus.publish("protocol.health", {"round": 1})
        assert dog.poll() == 0
        assert bus.n_subscriptions == 0

    def test_snapshot_reflects_health(self):
        bus = EventBus()
        dog = Watchdog(bus)
        bus.publish("protocol.health", {
            "op": "write", "round": 6, "requests": 12, "lost": 1,
            "degraded": 2, "quorum_margin": 0, "iterations": 3,
            "load_skew": 100,
        })
        dog.poll()
        snap = dog.snapshot()
        assert snap.round == 6
        assert snap.requests == 12
        assert snap.lost == 1 and snap.degraded == 2
        assert snap.min_quorum_margin == 0
        assert dog.snapshots == [snap]
        assert snap.to_dict()["round"] == 6


class TestOnlineCanary:
    def test_attack_detected_mid_run_and_control_clean(self):
        result = run_watchdog_canary(seed=0, window=8)
        assert result.silent_wrong_reads > 0
        # flagged while the run was still issuing batches
        assert result.detected_at_round is not None
        assert result.detected_at_round < result.last_round
        # pinned to the exact (processor, round, variable) set
        assert set(result.expected) <= result.flagged
        assert result.detected_online
        # <= q/2 control: zero violations, visibly degraded
        assert result.control_violations == 0
        assert result.control_degraded > 0
        assert result.control_clean
        assert result.ok
        d = result.to_dict()
        assert d["ok"] and d["schema"] == 1
        assert d["detected_at_round"] == result.detected_at_round

    def test_restores_previous_bus(self):
        sentinel = EventBus()
        obs.set_bus(sentinel)
        run_watchdog_canary(seed=0)
        assert obs.bus() is sentinel


class TestStreamFuzz:
    def test_clean_run_and_memory_bound(self):
        seen = []
        result = stream_fuzz(
            scheme="pp2", total_ops=1200, seed=2, window=8,
            snapshot_every=25, on_snapshot=seen.append,
        )
        assert result.ok
        assert result.events >= 1200
        assert result.events_dropped == 0
        assert result.peak_state < result.events
        assert result.snapshots and seen
        assert "watch.batches" in result.metrics
        d = result.to_dict()
        assert d["ok"] and d["schema"] == 1

    def test_leaves_no_bus_installed(self):
        stream_fuzz(scheme="pp2", total_ops=200, seed=0)
        assert obs.bus() is None
        assert not obs.enabled()

    def test_scheme_keys_cover_conformance_set(self):
        from repro.cli import _WATCH_SCHEMES
        from repro.conformance.differential import conformance_schemes

        assert tuple(_WATCH_SCHEMES) == SCHEME_KEYS
        assert len(SCHEME_KEYS) == len(conformance_schemes())
        for key in SCHEME_KEYS:
            assert scheme_by_key(key).M > 0

    def test_unknown_scheme_key_raises(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            scheme_by_key("nope")
