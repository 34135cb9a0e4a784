"""Tests for the bounded-degree network substrate."""

import numpy as np
import pytest

from repro.network import (
    HypercubeTopology,
    TorusTopology,
    route_packets,
    run_protocol_on_network,
)


class TestHypercube:
    def test_sizes(self):
        h = HypercubeTopology(4)
        assert h.n_nodes == 16 and h.degree == 4 and h.diameter() == 4

    def test_at_least(self):
        assert HypercubeTopology.at_least(1000).n_nodes == 1024
        assert HypercubeTopology.at_least(1024).n_nodes == 1024

    def test_neighbors(self):
        h = HypercubeTopology(3)
        assert sorted(h.neighbors(0)) == [1, 2, 4]
        assert sorted(h.neighbors(5)) == [1, 4, 7]

    def test_vnext_fixes_lowest_bit(self):
        h = HypercubeTopology(4)
        cur = np.array([0b0000, 0b1010, 7])
        dest = np.array([0b0101, 0b1010, 7])
        nxt = h.vnext(cur, dest)
        assert nxt.tolist() == [0b0001, 0b1010, 7]

    def test_greedy_reaches_destination_in_distance_steps(self):
        h = HypercubeTopology(6)
        rng = np.random.default_rng(0)
        cur = rng.integers(0, 64, 100)
        dest = rng.integers(0, 64, 100)
        dist = h.distance(cur, dest)
        x = cur.copy()
        for _ in range(6):
            x = h.vnext(x, dest)
        assert (x == dest).all()
        assert dist.max() <= 6

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            HypercubeTopology(0)


class TestTorus:
    def test_sizes(self):
        t = TorusTopology(5)
        assert t.n_nodes == 25 and t.degree == 4 and t.diameter() == 4

    def test_neighbors(self):
        t = TorusTopology(4)
        assert sorted(t.neighbors(0)) == [1, 3, 4, 12]

    def test_greedy_terminates_at_distance(self):
        t = TorusTopology(7)
        rng = np.random.default_rng(1)
        cur = rng.integers(0, 49, 200)
        dest = rng.integers(0, 49, 200)
        x = cur.copy()
        for _ in range(t.diameter()):
            x = t.vnext(x, dest)
        assert (x == dest).all()

    def test_distance_symmetric(self):
        t = TorusTopology(6)
        a = np.arange(36)
        b = np.roll(a, 7)
        assert (t.distance(a, b) == t.distance(b, a)).all()

    def test_wraparound_shortcut(self):
        t = TorusTopology(8)
        # node 0 to node 7 (same row): wrap distance 1, not 7
        assert int(t.distance(np.array([0]), np.array([7]))[0]) == 1


class TestRouting:
    def test_empty(self):
        h = HypercubeTopology(3)
        res = route_packets(h, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert res.rounds == 0 and res.delivered == 0

    def test_already_there(self):
        h = HypercubeTopology(3)
        res = route_packets(h, np.array([3, 5]), np.array([3, 5]))
        assert res.rounds == 0 and res.total_hops == 0

    def test_single_packet_takes_distance_rounds(self):
        h = HypercubeTopology(5)
        res = route_packets(h, np.array([0]), np.array([0b11111]))
        assert res.rounds == 5 and res.total_hops == 5

    def test_conflict_free_permutation_parallel(self):
        # packets all moving along disjoint dimension-1 edges: 1 round
        h = HypercubeTopology(4)
        src = np.array([0, 2, 4, 6])
        dst = src ^ 1
        res = route_packets(h, src, dst)
        assert res.rounds == 1

    def test_hotspot_serializes_on_last_link(self):
        # many packets into one node: the final links bound the time
        h = HypercubeTopology(4)
        src = np.arange(16)
        dst = np.zeros(16, dtype=np.int64)
        res = route_packets(h, src, dst)
        assert res.rounds >= (16 - 1) / h.degree  # degree-limited fan-in
        assert res.max_link_load >= 2

    def test_total_hops_at_least_distance_sum(self):
        h = HypercubeTopology(6)
        rng = np.random.default_rng(2)
        src = rng.integers(0, 64, 300)
        dst = rng.integers(0, 64, 300)
        res = route_packets(h, src, dst)
        assert res.total_hops == int(h.distance(src, dst).sum())

    def test_node_out_of_range(self):
        h = HypercubeTopology(3)
        with pytest.raises(ValueError):
            route_packets(h, np.array([9]), np.array([0]))

    def test_torus_routing(self):
        t = TorusTopology(6)
        rng = np.random.default_rng(3)
        src = rng.integers(0, 36, 100)
        dst = rng.integers(0, 36, 100)
        res = route_packets(t, src, dst)
        assert res.delivered == 100
        assert res.rounds >= int(t.distance(src, dst).max())


class TestRandomizedRouting:
    def test_random_policy_delivers(self):
        h = HypercubeTopology(6)
        rng = np.random.default_rng(4)
        src = rng.integers(0, 64, 200)
        dst = rng.integers(0, 64, 200)
        rng2 = np.random.default_rng(5)
        res = route_packets(
            h, src, dst, next_fn=lambda c, d: h.vnext_random(c, d, rng2)
        )
        assert res.delivered == 200
        assert res.total_hops == int(h.distance(src, dst).sum())

    def test_random_hop_is_productive(self):
        h = HypercubeTopology(8)
        rng = np.random.default_rng(6)
        cur = rng.integers(0, 256, 500)
        dest = rng.integers(0, 256, 500)
        nxt = h.vnext_random(cur, dest, rng)
        moved = cur != dest
        assert (h.distance(nxt, dest)[moved] == h.distance(cur, dest)[moved] - 1).all()
        assert (nxt[~moved] == cur[~moved]).all()

    def test_random_spreads_bit_reversal_congestion(self):
        # the classic deterministic-oblivious bad case: bit-reversal
        # permutation; randomized bit choice should not be (much) worse
        # and typically lowers the worst link load
        d = 8
        h = HypercubeTopology(d)
        src = np.arange(1 << d)
        dst = np.array(
            [int(format(v, f"0{d}b")[::-1], 2) for v in range(1 << d)]
        )
        greedy = route_packets(h, src, dst)
        rng = np.random.default_rng(7)
        rand = route_packets(
            h, src, dst, next_fn=lambda c, dd: h.vnext_random(c, dd, rng)
        )
        assert rand.delivered == greedy.delivered == 256
        assert rand.max_link_load <= greedy.max_link_load + 2


class TestProtocolOnNetwork:
    def test_runs_and_charges_overhead(self, scheme_2_5):
        idx = scheme_2_5.random_request_set(200, seed=0)
        mods = scheme_2_5.placement(idx)
        topo = HypercubeTopology.at_least(scheme_2_5.N)
        res = run_protocol_on_network(mods, scheme_2_5.N, 2, topo)
        assert res.mpc_iterations >= 1
        assert res.network_rounds > res.mpc_iterations
        assert res.overhead_factor > 1.0
        assert len(res.per_iteration_rounds) == res.mpc_iterations

    def test_same_satisfaction_as_mpc(self, scheme_2_5):
        # network execution must not change the iteration structure much:
        # iterations equal the single-phase MPC run (same arbitration)
        from repro.core.protocol import run_access_protocol

        idx = scheme_2_5.random_request_set(300, seed=1)
        mods = scheme_2_5.placement(idx)
        topo = HypercubeTopology.at_least(scheme_2_5.N)
        net = run_protocol_on_network(mods, scheme_2_5.N, 2, topo)
        mpc = run_access_protocol(mods, scheme_2_5.N, 2, n_phases=1)
        assert net.mpc_iterations == mpc.max_phase_iterations

    def test_topology_too_small(self):
        mods = np.array([[0, 1, 2]])
        with pytest.raises(ValueError):
            run_protocol_on_network(mods, 100, 2, HypercubeTopology(3))

    def test_overhead_scales_with_diameter(self, scheme_2_5):
        # a torus (diameter ~ sqrt N) must cost more than a hypercube
        # (diameter log N) on the same traffic
        idx = scheme_2_5.random_request_set(150, seed=2)
        mods = scheme_2_5.placement(idx)
        hyper = HypercubeTopology.at_least(scheme_2_5.N)
        torus = TorusTopology.at_least(scheme_2_5.N)
        rh = run_protocol_on_network(mods, scheme_2_5.N, 2, hyper)
        rt = run_protocol_on_network(mods, scheme_2_5.N, 2, torus)
        assert rt.network_rounds > rh.network_rounds
