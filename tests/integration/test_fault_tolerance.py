"""Fault injection: the majority discipline tolerates module failures.

With q+1 copies and quorum q/2+1, a variable survives as long as at
most q/2 of its copies sit in failed modules (for q=2: one failure per
variable).  This is the [Tho79] availability property the paper's
scheme inherits; these tests exercise it end to end.
"""

import numpy as np
import pytest

from repro.core.protocol import run_access_protocol
from repro.core.scheme import PPScheme


class TestProtocolLevel:
    def test_single_failed_module_still_completes(self):
        mods = np.array([[0, 1, 2], [3, 4, 5]])
        res = run_access_protocol(
            mods, 10, 2, failed_modules=np.array([0])
        )
        assert res.unsatisfiable is None
        # variable 0 reached quorum using modules 1 and 2 only
        assert res.mpc_stats.served >= 4

    def test_too_many_failures_raise(self):
        mods = np.array([[0, 1, 2]])
        with pytest.raises(ValueError, match="cannot reach quorum"):
            run_access_protocol(mods, 10, 2, failed_modules=np.array([0, 1]))

    def test_allow_partial_reports_casualties(self):
        mods = np.array([[0, 1, 2], [3, 4, 5]])
        res = run_access_protocol(
            mods, 10, 2, failed_modules=np.array([0, 1]), allow_partial=True
        )
        assert res.unsatisfiable.tolist() == [0]

    def test_failed_modules_never_serve(self):
        mods = np.array([[0, 1, 2]] * 5)
        res = run_access_protocol(
            mods, 10, 2, failed_modules=np.array([0]), n_phases=1
        )
        # module 0 contributed nothing: 5 vars x quorum 2 all from mods 1,2
        assert res.mpc_stats.served == 10
        assert res.max_phase_iterations >= 5

    def test_empty_failure_set_is_noop(self):
        mods = np.array([[0, 1, 2]])
        a = run_access_protocol(mods, 10, 2)
        b = run_access_protocol(mods, 10, 2, failed_modules=np.array([], dtype=np.int64))
        assert a.total_iterations == b.total_iterations


class TestSchemeLevel:
    @pytest.fixture(scope="class")
    def scheme(self):
        return PPScheme(2, 5)

    def test_reads_survive_one_module_down(self, scheme):
        idx = scheme.random_request_set(300, seed=0)
        store = scheme.make_store()
        scheme.write(idx, values=idx, store=store, time=1)
        # fail one module; for q=2 every variable has copies in 3 distinct
        # modules, so a single machine-wide failure hurts no variable twice
        res = scheme.read(
            idx, store=store, time=2, failed_modules=np.array([7])
        )
        assert res.unsatisfiable is None
        assert (res.values == idx).all()

    def test_write_then_fail_then_read_fresh(self, scheme):
        # a write reaches quorum; afterwards one module holding some fresh
        # copies dies; reads must still return the fresh value
        idx = scheme.random_request_set(300, seed=1)
        store = scheme.make_store()
        scheme.write(idx, values=np.full(300, 3), store=store, time=1)
        scheme.write(idx, values=np.full(300, 4), store=store, time=2)
        res = scheme.read(idx, store=store, time=3, failed_modules=np.array([0]))
        assert (res.values == 4).all()

    def test_degraded_write_then_healthy_read(self, scheme):
        # writes under failure touch a quorum of the live copies; after
        # recovery (no failures) readers still see the fresh value
        idx = scheme.random_request_set(200, seed=2)
        store = scheme.make_store()
        scheme.write(idx, values=idx, store=store, time=1,
                     failed_modules=np.array([5]))
        res = scheme.read(idx, store=store, time=2)
        assert (res.values == idx).all()

    def test_many_failures_partial(self, scheme):
        rng = np.random.default_rng(3)
        failed = rng.choice(scheme.N, 200, replace=False)
        idx = scheme.random_request_set(400, seed=4)
        res = scheme.access(
            idx, op="count", failed_modules=failed, allow_partial=True
        )
        mods = scheme.placement(idx)
        failed_mask = np.zeros(scheme.N, dtype=bool)
        failed_mask[failed] = True
        doomed = (failed_mask[mods].sum(axis=1) >= 2).nonzero()[0]
        got = res.unsatisfiable if res.unsatisfiable is not None else np.array([])
        assert sorted(got.tolist()) == sorted(doomed.tolist())

    def test_q4_tolerates_two_failures_per_variable(self):
        # q=4: 5 copies, quorum 3 -- two failed copies per variable are fine
        s = PPScheme(4, 3)
        idx = s.random_request_set(100, seed=5)
        store = s.make_store()
        s.write(idx, values=idx, store=store, time=1)
        mods = s.placement(idx)
        # fail the modules of the first two copies of variable 0
        failed = mods[0, :2]
        res = s.read(idx, store=store, time=2, failed_modules=failed)
        assert res.unsatisfiable is None
        assert (res.values == idx).all()
