"""Tests for adversarial workload constructions."""

import numpy as np
import pytest

from repro.core.graph import MemoryGraph
from repro.core.protocol import run_access_protocol
from repro.schemes.mehlhorn_vishkin import MehlhornVishkinScheme
from repro.schemes.pp_adapter import PPAdapter
from repro.schemes.single_copy import SingleCopyScheme
from repro.workloads.adversarial import (
    concentrated_set_for,
    phase_align,
    pp_module_neighborhood_set,
    pp_tight_request_set,
    theorem7_bound,
    tight_set_module_ids,
)


class TestNeighborhoodSet:
    def test_distinct_and_congesting(self, scheme_2_5):
        idx = pp_module_neighborhood_set(scheme_2_5, 16, seed_modules=[0])
        assert np.unique(idx).size == 16
        mods = scheme_2_5.placement(idx)
        # all 16 variables have one copy in module 0
        assert (mods == 0).any(axis=1).all()

    def test_insufficient_seeds(self, scheme_2_5):
        with pytest.raises(ValueError):
            pp_module_neighborhood_set(scheme_2_5, 17, seed_modules=[0])

    def test_auto_seeds(self, scheme_2_5):
        idx = pp_module_neighborhood_set(scheme_2_5, 40)
        assert np.unique(idx).size == 40


class TestTightRequestSets:
    def test_n9_d3(self):
        from repro.core.scheme import PPScheme

        s = PPScheme(2, 9)
        idx = pp_tight_request_set(s, 3, translates=2, seed=0)
        assert np.unique(idx).size == idx.size
        assert idx.size >= 84  # translates may overlap but not collapse

    def test_module_ids_shape(self, graph_2_6):
        mods = tight_set_module_ids(graph_2_6, 3)
        assert mods.shape == (84, 3)
        assert np.unique(mods).size == 63

    def test_tight_series_phi_grows_like_cube_root(self):
        # the headline worst-case behaviour: Phi ~ |S|^{1/3} on the
        # subgroup-tight family
        from repro.analysis.fitting import fit_power_law

        sizes, phis = [], []
        for n, d in [(4, 2), (6, 3), (8, 4)]:
            g = MemoryGraph(2, n)
            mods = tight_set_module_ids(g, d)
            res = run_access_protocol(mods, g.N, g.majority, n_phases=1)
            sizes.append(mods.shape[0])
            phis.append(res.max_phase_iterations)
        alpha, _ = fit_power_law(sizes, phis)
        assert 0.2 < alpha < 0.5


class TestPhaseAlign:
    def test_alignment(self):
        hot = np.array([100, 101, 102])
        fill = np.arange(20)
        out = phase_align(hot, fill, copies=3, phase=1)
        assert out.size == 9
        assert out[1::3].tolist() == [100, 101, 102]

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            phase_align(np.array([1]), np.array([1, 2]), copies=3)

    def test_fill_too_small(self):
        with pytest.raises(ValueError):
            phase_align(np.array([10, 11]), np.array([1, 2, 3]), copies=3)


class TestConcentratedSets:
    def test_single_copy(self):
        sc = SingleCopyScheme(64, 10000, hashed=True, seed=0)
        idx, b = concentrated_set_for(sc, 20)
        assert b == 1
        assert np.unique(sc.placement(idx)).size == 1

    def test_mv(self):
        mv = MehlhornVishkinScheme(1023, 5456, c=2)
        idx, b = concentrated_set_for(mv, 12)
        assert idx.size == 12
        mods = np.unique(mv.placement(idx))
        assert mods.size <= b

    def test_pp(self):
        pp = PPAdapter(2, 5)
        idx, b = concentrated_set_for(pp, 30)
        mods = np.unique(pp.placement(idx))
        assert mods.size == b

    def test_lower_bound_respected(self):
        # measured adversarial time >= count * quorum / |B| >= Thm-7 shape
        sc = SingleCopyScheme(64, 10000, hashed=True, seed=0)
        idx, b = concentrated_set_for(sc, 25)
        res = sc.access(idx, op="count")
        assert res.total_iterations >= idx.size * sc.read_quorum / b

    def test_unknown_scheme_type(self):
        with pytest.raises(TypeError):
            concentrated_set_for(object(), 5)


class TestTheorem7Bound:
    def test_values(self):
        assert theorem7_bound(10**6, 10**3, 3) == pytest.approx(10.0)
        assert theorem7_bound(10**6, 10**3, 1) == pytest.approx(1000.0)
