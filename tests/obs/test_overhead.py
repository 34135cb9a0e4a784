"""The <5% overhead budget (ISSUE acceptance criterion).

There is no instrumentation-free build to diff against at runtime, so
the budget is enforced by guard-cost accounting: with observability
disabled every instrumentation site costs one ``obs.enabled()`` call
returning False (plus, at ``obs.span`` sites, one no-op context enter).
We measure that per-guard cost directly, count the guard activations a
full-load (q=2, n=7) batch performs (via a recording trace -- every
emitted record is one activated site, counted with generous headroom),
and assert the total is below 5% of the batch's measured wall time.

The margin in practice is ~1000x: tens of ~50ns guards against a
~20ms batch.

The enabled path has its own budget: in served mode the streaming
watchdog is on by default, so a closed-loop zipf fleet is timed with it
on and off and the ratio is bounded (:class:`TestWatchdogOverhead`).
"""

import statistics
import time

import pytest

from repro import obs
from repro.core.scheme import PPScheme
from repro.service.batcher import ServiceConfig
from repro.service.loadgen import LoadConfig, run_load


@pytest.fixture(scope="module")
def scheme_2_7():
    return PPScheme(2, 7)


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestOverheadBudget:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert not obs.metrics_enabled()
        assert not obs.tracer().enabled

    def test_guard_cost_under_budget(self, scheme_2_7):
        s = scheme_2_7
        idx = s.random_request_set(min(s.N, s.M), seed=3)
        s.access(idx, op="count")  # warm every cache off the clock

        assert not obs.enabled()
        t_off = _best_of(lambda: s.access(idx, op="count"))

        # Count the instrumentation sites this exact batch activates:
        # every record a tracer emits is one site, and each span site is
        # at most two guard touches (enter + close).
        tracer = obs.RecordingTracer()
        prev = obs.set_tracer(tracer)
        try:
            s.access(idx, op="count")
        finally:
            obs.set_tracer(prev)
        touches = 2 * len(tracer.events) + 10  # +10: scheme-level slack

        # Per-guard cost of the disabled path, measured directly.
        n = 100_000
        t0 = time.perf_counter()
        for _ in range(n):
            obs.enabled()
        per_guard = (time.perf_counter() - t0) / n

        overhead = touches * per_guard
        budget = 0.05 * t_off
        assert overhead < budget, (
            f"guard overhead {overhead * 1e6:.1f}us exceeds 5% budget "
            f"{budget * 1e6:.1f}us ({touches} touches x "
            f"{per_guard * 1e9:.0f}ns on a {t_off * 1e3:.1f}ms batch)"
        )

    def test_disabled_run_emits_nothing(self, scheme_2_7):
        s = scheme_2_7
        idx = s.random_request_set(128, seed=4)
        before = len(obs.metrics())
        obs.metrics().reset()
        res = s.access(idx, op="count")
        assert res.total_iterations >= 1
        # no new instruments appeared and nothing was recorded
        assert len(obs.metrics()) == before
        snap = obs.metrics().snapshot()
        assert all(
            v.get("value", 0) == 0 and v.get("count", 0) == 0
            for v in snap.values()
        )


#: hot zipf keys on the served fleet's 2 x PPAdapter(2, 5) table
_FLEET = LoadConfig(
    clients=1024, ops_per_client=2, keyspace=512, mix="zipf", zipf_s=1.2,
    get_fraction=0.5, delete_fraction=0.02, seed=0,
)
#: enabled/disabled loop-wall bound: measured ~1.15 with the O(1)
#: per-event watchdog, ~1.40 when every event re-summed the checker state
#: (2-vCPU x86 host, median of 8 pairs)
_WATCHDOG_RATIO_MAX = 1.30


def _service(watchdog: bool) -> ServiceConfig:
    return ServiceConfig(
        n_shards=2, q=2, n=5, round_capacity=256, max_pending=1024,
        watchdog=watchdog,
    )


class TestWatchdogOverhead:
    def test_enabled_watchdog_under_budget(self):
        # Each pair runs on and off back to back, alternating which goes
        # first, so a host-speed swing hits both halves of a pair; the
        # median pair ratio discards the pairs one straddles.
        rep = run_load(_FLEET, _service(True))  # warm caches off the clock
        assert rep.violations == 0 and rep.events_dropped == 0
        ratios = []
        for k in range(8):
            order = (True, False) if k % 2 == 0 else (False, True)
            wall = {w: run_load(_FLEET, _service(w)).elapsed for w in order}
            ratios.append(wall[True] / wall[False])
        ratio = statistics.median(ratios)
        assert ratio < _WATCHDOG_RATIO_MAX, (
            f"watchdog on/off wall ratio {ratio:.3f} exceeds "
            f"{_WATCHDOG_RATIO_MAX} (pairs: "
            + ", ".join(f"{r:.2f}" for r in ratios) + ")"
        )
