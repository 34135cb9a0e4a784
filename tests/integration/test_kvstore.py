"""Tests for the parallel key-value store application layer."""

import numpy as np
import pytest

from repro.kvstore import ParallelKVStore
from repro.schemes.pp_adapter import PPAdapter
from repro.schemes.upfal_wigderson import UpfalWigdersonScheme


@pytest.fixture()
def kv():
    return ParallelKVStore(PPAdapter(2, 5), seed=1)


class TestBasics:
    def test_put_get(self, kv):
        keys = [f"user:{i}" for i in range(50)]
        vals = np.arange(50) * 10
        stats = kv.batch_put(keys, vals)
        assert stats["inserted"] == 50 and stats["updated"] == 0
        assert (kv.batch_get(keys) == vals).all()
        assert len(kv) == 50

    def test_missing_keys(self, kv):
        kv.batch_put(["a", "b"], [1, 2])
        got = kv.batch_get(["a", "zzz", "b"])
        assert got.tolist() == [1, -1, 2]

    def test_update_in_place(self, kv):
        kv.batch_put(["k"], [5])
        stats = kv.batch_put(["k"], [9])
        assert stats["updated"] == 1 and stats["inserted"] == 0
        assert kv.batch_get(["k"]).tolist() == [9]
        assert len(kv) == 1

    def test_int_keys(self, kv):
        keys = list(range(1000, 1040))
        kv.batch_put(keys, np.arange(40))
        assert (kv.batch_get(keys) == np.arange(40)).all()

    def test_mixed_put_batches(self, kv):
        kv.batch_put(["a", "b"], [1, 2])
        kv.batch_put(["b", "c"], [20, 3])
        assert kv.batch_get(["a", "b", "c"]).tolist() == [1, 20, 3]

    def test_value_range_checked(self, kv):
        with pytest.raises(ValueError):
            kv.batch_put(["x"], [1 << 33])

    def test_duplicate_keys_rejected(self, kv):
        with pytest.raises(ValueError):
            kv.batch_put(["a", "a"], [1, 2])
        with pytest.raises(ValueError):
            kv.batch_get(["a", "a"])

    def test_length_mismatch(self, kv):
        with pytest.raises(ValueError):
            kv.batch_put(["a"], [1, 2])


class TestDelete:
    def test_delete_and_miss(self, kv):
        kv.batch_put(["a", "b", "c"], [1, 2, 3])
        assert kv.batch_delete(["b", "nope"]) == 1
        assert kv.batch_get(["a", "b", "c"]).tolist() == [1, -1, 3]
        assert len(kv) == 2

    def test_reinsert_after_delete(self, kv):
        kv.batch_put(["a"], [1])
        kv.batch_delete(["a"])
        kv.batch_put(["a"], [2])
        assert kv.batch_get(["a"]).tolist() == [2]

    def test_tombstone_does_not_break_chain(self, kv):
        # build a chain, delete the middle, later keys stay reachable
        keys = [f"x{i}" for i in range(200)]
        kv.batch_put(keys, np.arange(200))
        kv.batch_delete(keys[50:100])
        got = kv.batch_get(keys)
        assert (got[:50] == np.arange(50)).all()
        assert (got[50:100] == -1).all()
        assert (got[100:] == np.arange(100, 200)).all()


class TestScaleAndCost:
    def test_thousand_keys(self, kv):
        keys = np.arange(1000) + 7
        vals = (keys * 13) % (1 << 30)
        kv.batch_put(list(keys), vals)
        assert (kv.batch_get(list(keys)) == vals).all()
        c = kv.cost_summary()
        # probe chains stay short: rounds << number of keys
        assert c["protocol_rounds"] < 150
        assert c["mpc_iterations"] > 0

    def test_fills_toward_capacity(self):
        small = ParallelKVStore(UpfalWigdersonScheme(64, 512, c=2, seed=0), seed=2)
        n = small.capacity // 2
        keys = list(range(n))
        small.batch_put(keys, np.arange(n))
        assert (small.batch_get(keys) == np.arange(n)).all()

    def test_deterministic_across_instances(self):
        a = ParallelKVStore(PPAdapter(2, 5), seed=3)
        b = ParallelKVStore(PPAdapter(2, 5), seed=3)
        keys = [f"k{i}" for i in range(30)]
        a.batch_put(keys, np.arange(30))
        b.batch_put(keys, np.arange(30))
        assert (a.batch_get(keys) == b.batch_get(keys)).all()


class TestScan:
    def test_scan_matches_contents(self, kv):
        keys = [f"s{i}" for i in range(60)]
        vals = np.arange(60) + 100
        kv.batch_put(keys, vals)
        fps, scanned = kv.scan()
        assert fps.size == 60
        assert sorted(scanned.tolist()) == sorted(vals.tolist())

    def test_scan_skips_tombstones(self, kv):
        kv.batch_put(["a", "b", "c"], [1, 2, 3])
        kv.batch_delete(["b"])
        fps, vals = kv.scan()
        assert fps.size == 2
        assert sorted(vals.tolist()) == [1, 3]

    def test_scan_empty(self, kv):
        fps, vals = kv.scan()
        assert fps.size == 0 and vals.size == 0


class TestFaultToleranceComposition:
    def test_store_survives_module_failures(self):
        # the KV layer composes with scheme-level replication: reads via
        # the underlying store still succeed when a module dies, because
        # every slot variable has 3 copies
        kv = ParallelKVStore(PPAdapter(2, 5), seed=4)
        keys = [f"k{i}" for i in range(100)]
        kv.batch_put(keys, np.arange(100))
        # simulate failure by reading through the scheme with failures
        fps = kv._fingerprint(keys)
        found, slot, _ = kv._probe(fps)
        assert found.all()
        res = kv.scheme.read(
            np.unique(2 * slot + 1), store=kv.store, time=10_000,
            failed_modules=np.array([3]),
        )
        assert res.unsatisfiable is None
