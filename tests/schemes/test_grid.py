"""Tests for the [PP93]-style grid scheme."""

import numpy as np
import pytest

from repro.schemes.grid import GridScheme


@pytest.fixture(scope="module")
def grid():
    return GridScheme(1023)  # P = 337, M = 113569


class TestStructure:
    def test_parameters(self, grid):
        assert grid.P == 337
        assert grid.M == 337**2
        assert grid.copies_per_variable == 3
        assert grid.read_quorum == grid.write_quorum == 2

    def test_m_is_theta_n_squared(self, grid):
        assert 0.05 < grid.M / grid.N**2 < 1.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            GridScheme(8)

    def test_point_round_trip(self, grid):
        idx = np.array([0, 1, 336, 337, grid.M - 1])
        i, j = grid.point_of(idx)
        assert (grid.index_of(i, j) == idx).all()


class TestPlacement:
    def test_groups_disjoint(self, grid):
        pl = grid.placement(np.arange(5000))
        P = grid.P
        assert (pl[:, 0] < P).all()
        assert ((pl[:, 1] >= P) & (pl[:, 1] < 2 * P)).all()
        assert (pl[:, 2] >= 2 * P).all()
        assert pl.max() < grid.N

    def test_distinct_rows(self, grid):
        pl = grid.placement(np.arange(3000))
        srt = np.sort(pl, axis=1)
        assert not (srt[:, 1:] == srt[:, :-1]).any()

    def test_theorem2_analog(self, grid):
        # two points share at most one line => at most one common module
        rng = np.random.default_rng(0)
        idx = rng.choice(grid.M, 200, replace=False)
        pl = grid.placement(idx)
        for a in range(200):
            for b in range(a):
                assert int((pl[a] == pl[b]).sum()) <= 1

    def test_module_stores_exactly_one_line(self, grid):
        for direction, module in ((0, 5), (1, 17), (2, 100)):
            vars_ = grid.line_variables(direction, module)
            pl = grid.placement(vars_)
            assert (pl[:, direction] == direction * grid.P + module).all()
            assert np.unique(vars_).size == grid.P


class TestAdversary:
    def test_block_concentration(self, grid):
        k = 16
        block = grid.adversarial_block(k)
        assert block.size == k * k
        mods = np.unique(grid.placement(block))
        assert mods.size <= 4 * k  # k rows + k cols + (2k-1) diagonals

    def test_block_forces_sqrt_time(self, grid):
        k = 20
        block = grid.adversarial_block(k)
        res = grid.access(block, op="count")
        # |S| * quorum / |Gamma(S)| >= k^2 * 2 / 4k = k/2
        assert res.total_iterations >= k // 2

    def test_block_too_large(self, grid):
        with pytest.raises(ValueError):
            grid.adversarial_block(grid.P + 1)

    def test_sqrt_scaling(self, grid):
        from repro.analysis.fitting import fit_power_law

        sizes, iters = [], []
        for k in (8, 16, 32, 64):
            block = grid.adversarial_block(k)
            res = grid.access(block, op="count")
            sizes.append(k * k)
            iters.append(res.total_iterations)
        alpha, _ = fit_power_law(sizes, iters)
        assert 0.35 < alpha < 0.65  # Theta(sqrt(|S|))


class TestSemantics:
    def test_read_write(self, grid):
        idx = grid.random_request_set(500, seed=1)
        st = grid.make_store()
        grid.write(idx, values=idx % (1 << 20), store=st, time=1)
        res = grid.read(idx, store=st, time=2)
        assert (res.values == idx % (1 << 20)).all()

    def test_freshness(self, grid):
        idx = grid.random_request_set(200, seed=2)
        st = grid.make_store()
        grid.write(idx, values=np.full(200, 1), store=st, time=1)
        grid.write(idx, values=np.full(200, 2), store=st, time=2)
        res = grid.read(idx, store=st, time=3)
        assert (res.values == 2).all()
