"""Tests for the PPScheme facade (placement, access, fallback addressing)."""

import numpy as np
import pytest

from repro.core.addressing import EnumeratedAddressing
from repro.core.scheme import PPScheme


class TestConstruction:
    def test_explicit_addressing_q2_odd(self, scheme_2_5):
        assert scheme_2_5.addressing_kind == "explicit-O(logN)"

    def test_fallback_q4(self, scheme_4_3):
        assert scheme_4_3.addressing_kind == "enumerated-fallback"

    def test_fallback_even_n(self):
        s = PPScheme(2, 4)
        assert s.addressing_kind == "enumerated-fallback"

    def test_describe(self, scheme_2_5):
        d = scheme_2_5.describe()
        assert d["N"] == 1023 and d["addressing"] == "explicit-O(logN)"


class TestPlacement:
    def test_module_ids_shape(self, scheme_2_5):
        idx = scheme_2_5.random_request_set(100, seed=0)
        mods = scheme_2_5.placement(idx)
        assert mods.shape == (100, 3)
        assert mods.min() >= 0 and mods.max() < scheme_2_5.N

    def test_placement_matches_locate(self, scheme_2_3):
        idx = np.arange(scheme_2_3.M, dtype=np.int64)
        mods, slots = scheme_2_3.placement_for(idx)
        for i in range(scheme_2_3.M):
            assert scheme_2_3.locate(i) == list(
                zip(mods[i].tolist(), slots[i].tolist())
            )

    def test_global_injectivity(self, scheme_2_3):
        idx = np.arange(scheme_2_3.M, dtype=np.int64)
        mods, slots = scheme_2_3.placement_for(idx)
        cells = set(zip(mods.ravel().tolist(), slots.ravel().tolist()))
        assert len(cells) == scheme_2_3.M * 3

    def test_module_capacity_respected(self, scheme_2_3):
        idx = np.arange(scheme_2_3.M, dtype=np.int64)
        _, slots = scheme_2_3.placement_for(idx)
        assert slots.max() < scheme_2_3.module_capacity

    def test_q4_placement(self, scheme_4_3):
        idx = scheme_4_3.random_request_set(200, seed=1)
        mods, slots = scheme_4_3.placement_for(idx)
        assert mods.shape == (200, 5)
        for row in mods:
            assert len(set(row.tolist())) == 5
        cells = set(zip(mods.ravel().tolist(), slots.ravel().tolist()))
        assert len(cells) == 200 * 5


class TestAccess:
    def test_duplicate_requests_rejected(self, scheme_2_5):
        with pytest.raises(ValueError):
            scheme_2_5.access(np.array([1, 1, 2]))

    def test_count_mode(self, scheme_2_5):
        idx = scheme_2_5.random_request_set(300, seed=2)
        res = scheme_2_5.access(idx, op="count")
        assert res.max_phase_iterations >= 1
        assert res.n_requests == 300

    def test_read_write_round_trip(self, scheme_2_5):
        idx = scheme_2_5.random_request_set(400, seed=3)
        store = scheme_2_5.make_store()
        scheme_2_5.write(idx, values=idx * 3 % (1 << 30), store=store, time=1)
        res = scheme_2_5.read(idx, store=store, time=2)
        assert (res.values == idx * 3 % (1 << 30)).all()

    def test_read_write_q4(self, scheme_4_3):
        idx = scheme_4_3.random_request_set(150, seed=4)
        store = scheme_4_3.make_store()
        scheme_4_3.write(idx, values=idx, store=store, time=1)
        res = scheme_4_3.read(idx, store=store, time=2)
        assert (res.values == idx).all()

    def test_partial_overwrite(self, scheme_2_5):
        idx = scheme_2_5.random_request_set(300, seed=5)
        store = scheme_2_5.make_store()
        scheme_2_5.write(idx, values=np.full(300, 7), store=store, time=1)
        scheme_2_5.write(idx[:100], values=np.full(100, 9), store=store, time=2)
        res = scheme_2_5.read(idx, store=store, time=3)
        assert (res.values[:100] == 9).all()
        assert (res.values[100:] == 7).all()

    def test_arbitration_policies_agree_on_semantics(self, scheme_2_5):
        idx = scheme_2_5.random_request_set(200, seed=6)
        for policy in ("lowest", "random", "rotating"):
            store = scheme_2_5.make_store()
            scheme_2_5.write(idx, values=idx, store=store, time=1, arbitration=policy)
            res = scheme_2_5.read(idx, store=store, time=2, arbitration=policy)
            assert (res.values == idx).all()

    def test_request_too_many(self, scheme_2_3):
        with pytest.raises(ValueError):
            scheme_2_3.random_request_set(scheme_2_3.M + 1)


class TestEnumeratedAddressing:
    def test_round_trip(self, scheme_4_3):
        addr = scheme_4_3.addressing
        assert isinstance(addr, EnumeratedAddressing)
        for i in range(0, addr.M, 97):
            assert addr.rank(addr.unrank(i)) == i

    def test_vunrank(self, scheme_4_3):
        addr = scheme_4_3.addressing
        idx = np.arange(0, addr.M, 53, dtype=np.int64)
        a, b, c, d = addr.vunrank(idx)
        for k, i in enumerate(idx):
            assert (int(a[k]), int(b[k]), int(c[k]), int(d[k])) == addr.unrank(int(i))

    def test_locate_consistent(self, scheme_4_3):
        g = scheme_4_3.graph
        for i in (0, 11, 397):
            A = scheme_4_3.addressing.unrank(i)
            for (u, k) in scheme_4_3.locate(i):
                stored = g.gamma_module(u)[k]
                assert g.variables.key(stored) == g.variables.key(A)

    def test_refuses_huge_m(self):
        from repro.core.graph import MemoryGraph

        with pytest.raises(ValueError):
            EnumeratedAddressing(MemoryGraph(2, 10))
