"""Differential tests: zero-intensity faults are bit-identical to none.

Every fault model at intensity 0 must produce an empty plan whose
kwargs are ``{}``, so an access under it follows the *exact* fault-free
code path: same values, same per-phase iteration counts, same live
histories, same machine statistics, no fault report.  This pins the
zero-fault hot path -- fault support may not perturb healthy runs.
"""

import numpy as np
import pytest

from repro.faults.models import FaultContext, default_models
from repro.schemes.pp_adapter import PPAdapter


@pytest.fixture(scope="module", params=[(2, 3), (4, 3)], ids=["q2", "q4"])
def adapter(request):
    """The paper's scheme at q=2 and q=4 behind the uniform interface."""
    return PPAdapter(*request.param)


def _run(sch, op, **kw):
    idx = sch.random_request_set(40, seed=7)
    store = None
    if op in ("read", "write"):
        store = sch.make_store()
        sch.write(idx, values=idx + 1, store=store, time=1)
    if op == "write":
        return sch.access(
            idx, op=op, store=store, values=idx + 2, time=2, **kw
        )
    return sch.access(idx, op=op, store=store, time=2, **kw)


def _assert_identical(a, b):
    assert a.iterations_per_phase == b.iterations_per_phase
    assert [p.live_history for p in a.phases] == [
        p.live_history for p in b.phases
    ]
    for f in ("steps", "requests", "served", "max_congestion"):
        assert getattr(a.mpc_stats, f) == getattr(b.mpc_stats, f)
    if a.values is None:
        assert b.values is None
    else:
        np.testing.assert_array_equal(a.values, b.values)
    assert a.unsatisfiable is None and b.unsatisfiable is None
    assert a.fault_report is None and b.fault_report is None


@pytest.mark.parametrize("op", ["count", "read", "write"])
def test_every_model_at_zero_intensity_is_identity(adapter, op):
    idx = adapter.random_request_set(40, seed=7)
    ctx = FaultContext(
        adapter.N, adapter.placement(idx), adapter.read_quorum,
        slots=adapter.slots(idx, adapter.placement(idx)),
    )
    baseline = _run(adapter, op)
    for model in default_models():
        plan = model.plan(ctx, 0.0, seed=11)
        assert plan.access_kwargs() == {}, model.name
        res = _run(adapter, op, **plan.access_kwargs())
        _assert_identical(baseline, res)


@pytest.mark.parametrize("op", ["count", "read", "write"])
def test_empty_failed_modules_array_is_identity(adapter, op):
    """An explicitly empty failure set must also be a no-op (no report,
    no degraded tracking) -- the schedule feeds these on quiet steps."""
    baseline = _run(adapter, op)
    res = _run(
        adapter, op,
        failed_modules=np.empty(0, dtype=np.int64), allow_partial=True,
    )
    _assert_identical(baseline, res)


def test_rerun_reproducibility(adapter):
    """The healthy path itself is deterministic, making the differential
    comparison meaningful."""
    _assert_identical(_run(adapter, "read"), _run(adapter, "read"))
