"""TraceRecorder: per-operation mem.op / kv.op capture and round trips."""

import numpy as np
import pytest

from repro import obs
from repro.conformance.recorder import (
    KV_EVENT,
    MEM_EVENT,
    TraceRecorder,
    kv_op_from_event,
    load_kv_ops,
    load_mem_ops,
    mem_op_from_event,
    record,
)
from repro.kvstore.store import ParallelKVStore
from repro.schemes.pp_adapter import PPAdapter

_SCH = PPAdapter(2, 3)


class TestMemOpCapture:
    def test_one_event_per_request(self):
        idx = _SCH.random_request_set(16, seed=0)
        store = _SCH.make_store()
        with record() as rec:
            _SCH.write(idx, values=idx * 3, store=store, time=1)
            _SCH.read(idx, store=store, time=2)
        assert rec.n_mem_ops() == 2 * idx.size
        writes = [o for o in rec.mem_ops() if o.op == "write"]
        reads = [o for o in rec.mem_ops() if o.op == "read"]
        assert len(writes) == len(reads) == idx.size

    def test_fields_match_batch(self):
        idx = _SCH.random_request_set(8, seed=1)
        store = _SCH.make_store()
        with record() as rec:
            _SCH.write(idx, values=idx + 100, store=store, time=5)
        ops = rec.mem_ops()
        assert [o.var for o in ops] == [int(v) for v in idx]
        assert [o.value for o in ops] == [int(v) + 100 for v in idx]
        assert all(o.round == 5 for o in ops)
        assert [o.proc for o in ops] == list(range(idx.size))
        assert not any(o.lost for o in ops)

    def test_read_values_recorded(self):
        idx = _SCH.random_request_set(8, seed=2)
        store = _SCH.make_store()
        _SCH.write(idx, values=idx * 7, store=store, time=1)
        with record() as rec:
            res = _SCH.read(idx, store=store, time=2)
        got = [o.value for o in rec.mem_ops()]
        assert got == [int(v) for v in res.values]

    def test_where_identity(self):
        idx = np.array([3, 9], dtype=np.int64)
        store = _SCH.make_store()
        with record() as rec:
            _SCH.write(idx, values=idx, store=store, time=1)
        assert rec.mem_ops()[1].where == (1, 1, 9)

    def test_core_scheme_also_emits(self, scheme_2_3):
        idx = scheme_2_3.random_request_set(12, seed=3)
        store = scheme_2_3.make_store()
        with record() as rec:
            scheme_2_3.write(idx, values=idx, store=store, time=1)
        assert rec.n_mem_ops() == idx.size
        assert {o.var for o in rec.mem_ops()} == {int(v) for v in idx}

    def test_count_op_emits_nothing(self):
        idx = _SCH.random_request_set(8, seed=4)
        with record() as rec:
            _SCH.access(idx, op="count")
        assert rec.n_mem_ops() == 0

    def test_var_ids_shape_validated(self):
        from repro.core.protocol import run_access_protocol

        idx = _SCH.random_request_set(4, seed=0)
        modules = _SCH.placement(idx)
        with record():
            with pytest.raises(ValueError, match="var_ids"):
                run_access_protocol(
                    modules, _SCH.N, 2, op="write",
                    slots=_SCH.slots(idx, modules),
                    store=_SCH.make_store(),
                    values=np.ones(4, dtype=np.int64), time=1,
                    var_ids=np.arange(3),
                )


class TestInstallRestore:
    def test_disabled_outside_block(self):
        assert not obs.enabled()
        with record() as rec:
            assert obs.enabled()
            assert obs.tracer() is rec
        assert not obs.enabled()

    def test_restores_previous_tracer(self):
        outer = TraceRecorder()
        prev = obs.set_tracer(outer)
        try:
            with record():
                pass
            assert obs.tracer() is outer
        finally:
            obs.set_tracer(prev if prev.enabled else None)

    def test_plain_recording_tracer_captures_mem_ops(self):
        idx = _SCH.random_request_set(4, seed=5)
        store = _SCH.make_store()
        tracer = obs.RecordingTracer()
        prev = obs.set_tracer(tracer)
        try:
            _SCH.write(idx, values=idx, store=store, time=1)
        finally:
            obs.set_tracer(prev if prev.enabled else None)
        assert sum(e["name"] == MEM_EVENT for e in tracer.events) == idx.size


class TestKvCapture:
    def test_kv_ops_recorded(self):
        kv = ParallelKVStore(PPAdapter(2, 3))
        with record() as rec:
            kv.batch_put(["a", "b"], np.array([1, 2]))
            kv.batch_get(["a", "missing"])
            kv.batch_delete(["b"])
        ops = rec.kv_ops()
        assert [o.op for o in ops] == ["put", "put", "get", "get", "delete"]
        by_key = {(o.op, o.key): o.value for o in ops}
        assert by_key[("get", "a")] == 1
        assert by_key[("get", "missing")] == -1

    def test_rounds_increase(self):
        kv = ParallelKVStore(PPAdapter(2, 3))
        with record() as rec:
            kv.batch_put(["x"], np.array([9]))
            kv.batch_get(["x"])
        ops = rec.kv_ops()
        assert ops[1].round > ops[0].round


class TestJsonlRoundTrip:
    def test_mem_and_kv_survive_disk(self, tmp_path):
        idx = _SCH.random_request_set(6, seed=6)
        store = _SCH.make_store()
        kv = ParallelKVStore(PPAdapter(2, 3))
        with record() as rec:
            _SCH.write(idx, values=idx, store=store, time=1)
            _SCH.read(idx, store=store, time=2)
            kv.batch_put(["k"], np.array([7]))
        path = str(tmp_path / "trace.jsonl")
        rec.write_jsonl(path)
        assert load_mem_ops(path) == rec.mem_ops()
        assert load_kv_ops(path) == rec.kv_ops()

    def test_single_event_projection_matches_list(self):
        idx = _SCH.random_request_set(4, seed=8)
        store = _SCH.make_store()
        kv = ParallelKVStore(PPAdapter(2, 3))
        with record() as rec:
            _SCH.write(idx, values=idx, store=store, time=1)
            kv.batch_put(["k"], np.array([7]))
        mem = [mem_op_from_event(e) for e in rec.events
               if e["name"] == MEM_EVENT]
        kvs = [kv_op_from_event(e) for e in rec.events
               if e["name"] == KV_EVENT]
        assert mem == rec.mem_ops() and len(mem) >= idx.size
        assert kvs == rec.kv_ops() and len(kvs) == 1

    def test_interleaves_with_protocol_spans(self, tmp_path):
        idx = _SCH.random_request_set(4, seed=7)
        store = _SCH.make_store()
        with record() as rec:
            _SCH.write(idx, values=idx, store=store, time=1)
        names = {e["name"] for e in rec.events}
        assert MEM_EVENT in names
        assert "protocol.access" in names

    def test_repr_mentions_counts(self):
        rec = TraceRecorder()
        assert "0 mem ops" in repr(rec)
        assert KV_EVENT  # exported constant
