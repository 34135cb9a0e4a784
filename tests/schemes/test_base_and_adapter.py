"""Tests for the MemoryScheme base plumbing, KeyedCopyStore, and PPAdapter."""

import numpy as np
import pytest

from repro.schemes.base import KeyedCopyStore
from repro.schemes.pp_adapter import PPAdapter
from repro.schemes.single_copy import SingleCopyScheme


class TestKeyedCopyStore:
    def test_unwritten_default(self):
        st = KeyedCopyStore(8)
        vals, stamps = st.read(np.array([0, 1]), np.array([5, 6]))
        assert vals.tolist() == [0, 0] and stamps.tolist() == [-1, -1]

    def test_round_trip(self):
        st = KeyedCopyStore(8)
        st.write(np.array([1, 2]), np.array([10, 20]), np.array([7, 8]), 3)
        vals, stamps = st.read(np.array([1, 2]), np.array([10, 20]))
        assert vals.tolist() == [7, 8] and stamps.tolist() == [3, 3]

    def test_2d(self):
        st = KeyedCopyStore(8)
        mods = np.array([[0, 1], [2, 3]])
        slots = np.array([[9, 9], [9, 9]])
        st.write(mods, slots, np.array([[1, 2], [3, 4]]), 1)
        vals, _ = st.read(mods, slots)
        assert vals.tolist() == [[1, 2], [3, 4]]


class TestBaseValidation:
    def test_duplicate_requests_rejected(self):
        sc = SingleCopyScheme(16, 100)
        with pytest.raises(ValueError):
            sc.access(np.array([1, 1]))

    def test_random_request_set_bounds(self):
        sc = SingleCopyScheme(16, 100)
        with pytest.raises(ValueError):
            sc.random_request_set(101)
        idx = sc.random_request_set(100)
        assert np.unique(idx).size == 100

    def test_default_placement_for_is_placement_then_slots(self):
        sc = SingleCopyScheme(16, 100)
        idx = sc.random_request_set(10, seed=1)
        mods, slots = sc.placement_for(idx)
        assert np.array_equal(mods, sc.placement(idx))
        assert np.array_equal(slots, sc.slots(idx, mods))

    def test_count_as_write(self):
        sc = SingleCopyScheme(16, 100)
        idx = sc.random_request_set(10, seed=1)
        res = sc.access(idx, op="count", count_as="write")
        assert res.n_requests == 10


class TestPPAdapter:
    @pytest.fixture(scope="class")
    def pp(self):
        return PPAdapter(q=2, n=5)

    def test_interface_attributes(self, pp):
        assert pp.N == 1023 and pp.M == 5456
        assert pp.copies_per_variable == 3
        assert pp.read_quorum == pp.write_quorum == 2

    def test_placement_matches_inner(self, pp):
        idx = pp.random_request_set(100, seed=0)
        assert np.array_equal(pp.placement(idx), pp.scheme.module_ids_for(idx))

    def test_slots_match_inner(self, pp):
        idx = pp.random_request_set(50, seed=1)
        mods = pp.placement(idx)
        slots = pp.slots(idx, mods)
        _, want = pp.scheme.placement_for(idx)
        assert np.array_equal(slots, want)
        got_mods, got_slots = pp.placement_for(idx)
        assert np.array_equal(got_mods, mods)
        assert np.array_equal(got_slots, slots)

    def test_semantics_through_adapter(self, pp):
        idx = pp.random_request_set(200, seed=2)
        st = pp.make_store()
        pp.write(idx, values=idx, store=st, time=1)
        res = pp.read(idx, store=st, time=2)
        assert (res.values == idx).all()

    def test_dense_store(self, pp):
        from repro.mpc.memory import SharedCopyStore

        assert isinstance(pp.make_store(), SharedCopyStore)
