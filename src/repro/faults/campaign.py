"""Fault-injection campaigns: sweep fault intensity, pin the q/2 threshold.

The paper's implicit robustness claim: every access touches a majority
``q/2 + 1`` of the ``q + 1`` copies and reads trust the freshest
timestamp, so memory semantics survive **up to q/2 unavailable or
stale copies per variable** and break at ``q/2 + 1``.  The campaign
makes that claim measurable:

* :func:`threshold_experiment` runs the adversarial ladder for one
  ``q``: kill (or roll back to stale) *exactly* ``k`` copies of
  pairwise-disjoint victim variables for ``k = 0 .. q/2 + 1`` and check
  the threshold is sharp -- zero semantic violations up to ``q/2``,
  every victim lost (killed ladder) or served stale data (stale ladder
  with the fresh remnant killed) at ``q/2 + 1``.
* :func:`run_campaign` adds intensity sweeps of every fault model
  (random/transient crashes, targeted attacks, grey modules, stale
  copies) on top of the threshold ladders, verifying the **invariant**
  on every run: a variable with at most ``q/2`` faulty copies is always
  satisfied and always reads the latest completed write; variables
  beyond the threshold may be *lost* (reported, never hung on) but a
  silent wrong read below the threshold is a violation.

Staleness is measured against a fully propagated write (all ``q + 1``
copies stamped) before the adversary rolls copies back: if the write
only reached a minimal quorum, rolling back even one of *those* copies
is indistinguishable from ``q/2 + 1`` stale copies -- the intersection
argument counts faulty copies against the whole copy set.

Campaign runs emit ``faults.campaign`` / ``faults.scenario`` obs spans
and ``faults.*`` metrics, and render a markdown + JSON report for
``benchmarks/results/`` via :func:`write_report` (surfaced by the
``repro faults campaign | report`` CLI).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

import repro.obs as _obs
from repro.faults.models import (
    FaultContext,
    FaultModel,
    StaleCopies,
    TargetedAttack,
    default_models,
    disjoint_victims,
)

__all__ = [
    "ThresholdRow",
    "ScenarioRow",
    "CampaignResult",
    "harness_for_q",
    "threshold_experiment",
    "run_campaign",
    "render_markdown",
    "write_report",
    "REPORT_BASENAME",
]

#: report files are ``<basename>.md`` / ``<basename>.json``
REPORT_BASENAME = "faults_campaign"

#: value modulus keeping campaign payloads inside the packed 32-bit range
_VAL_MOD = 1 << 20


@dataclass
class ThresholdRow:
    """One rung of the adversarial ladder for one (q, attack kind)."""

    q: int
    attack: str  # 'killed' or 'stale'
    k: int  # copies attacked per victim
    n_victims: int
    lost_victims: int
    wrong_victims: int
    expect_break: bool  # k > q/2: the paper predicts loss/corruption
    ok: bool  # observation matches the predicted side of the threshold


@dataclass
class ScenarioRow:
    """One fault-model intensity point of the campaign sweep."""

    q: int
    model: str
    intensity: float
    n_requests: int
    satisfied: int
    degraded: int
    lost: int
    wrong_below: int  # silent wrong reads below threshold (violations)
    lost_below: int  # quorum losses below threshold (violations)
    extra_iterations: int
    ok: bool


@dataclass
class CampaignResult:
    """Everything one campaign run measured."""

    thresholds: list[ThresholdRow] = field(default_factory=list)
    scenarios: list[ScenarioRow] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True iff no semantic violation below the q/2 threshold."""
        return not self.violations

    def to_dict(self) -> dict:
        """JSON-serializable form (schema documented by the keys)."""
        return {
            "schema": 1,
            "ok": self.ok,
            "meta": self.meta,
            "violations": list(self.violations),
            "thresholds": [asdict(r) for r in self.thresholds],
            "scenarios": [asdict(r) for r in self.scenarios],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignResult":
        """Rehydrate a result from its :meth:`to_dict` form."""
        return cls(
            thresholds=[ThresholdRow(**r) for r in d.get("thresholds", [])],
            scenarios=[ScenarioRow(**r) for r in d.get("scenarios", [])],
            violations=list(d.get("violations", [])),
            meta=dict(d.get("meta", {})),
        )


def harness_for_q(q: int, seed: int = 0):
    """A majority-quorum scheme with ``q + 1`` copies for the campaign.

    q = 2 and q = 4 run the paper's own construction (via
    :class:`~repro.schemes.pp_adapter.PPAdapter`); other q (the paper
    defers those parameters) run the Upfal-Wigderson random-placement
    baseline with ``2c - 1 = q + 1`` copies -- the protocol, store, and
    majority discipline under test are identical either way.
    """
    if q % 2 != 0 or q < 2:
        raise ValueError("q must be an even positive integer")
    from repro.schemes.pp_adapter import PPAdapter

    if q == 2:
        return PPAdapter(2, 5)
    if q == 4:
        return PPAdapter(4, 3)
    from repro.schemes.upfal_wigderson import UpfalWigdersonScheme

    return UpfalWigdersonScheme(N=512, M=4096, c=q // 2 + 1, seed=seed)


def _propagate(store, modules, slots, values, time):
    """Stamp (values, time) into *every* copy cell of the batch."""
    store.write(
        modules, slots, np.broadcast_to(values[:, None], modules.shape), time
    )


def _lost_mask(res, n: int) -> np.ndarray:
    """(V,) bool mask of the variables the access reported lost."""
    mask = np.zeros(n, dtype=bool)
    if res.unsatisfiable is not None:
        mask[res.unsatisfiable] = True
    return mask


def _check_invariant(
    res,
    expected: np.ndarray,
    faulty_counts: np.ndarray,
    tol: int,
    where: str,
    violations: list[str],
) -> tuple[int, int]:
    """The memory-semantics invariant under faults: every variable with
    <= tol faulty copies is satisfied and reads the latest completed
    write.  Returns (wrong_below, lost_below) violation counts."""
    n = expected.shape[0]
    lost = _lost_mask(res, n)
    below = faulty_counts <= tol
    lost_below = int(np.count_nonzero(lost & below))
    wrong = np.zeros(n, dtype=bool)
    if res.values is not None:
        wrong = (~lost) & (res.values != expected)
    wrong_below = int(np.count_nonzero(wrong & below))
    if lost_below:
        violations.append(
            f"{where}: {lost_below} variable(s) lost their quorum with "
            f"<= {tol} faulty copies"
        )
    if wrong_below:
        violations.append(
            f"{where}: {wrong_below} silent wrong read(s) with "
            f"<= {tol} faulty copies"
        )
    return wrong_below, lost_below


def threshold_experiment(
    q: int,
    n_victims: int = 12,
    n_requests: int | None = None,
    seed: int = 0,
    violations: list[str] | None = None,
) -> list[ThresholdRow]:
    """The adversarial ladder pinning the q/2 break-even for one ``q``.

    For ``k = 0 .. q/2 + 1`` and pairwise-disjoint victims: the *killed*
    ladder fails the modules of exactly ``k`` copies per victim; the
    *stale* ladder rolls exactly ``k`` fully propagated copies back to
    an old (value, timestamp), and at ``k = q/2 + 1`` additionally kills
    the fresh remnant so the corrupted majority is the only reachable
    quorum.  Appends any observed violation to ``violations``.
    """
    if violations is None:
        violations = []
    sch = harness_for_q(q, seed)
    count = n_requests or min(sch.N, sch.M, 600)
    idx = sch.random_request_set(count, seed=seed)
    modules, slots = sch.placement_for(idx)
    ctx = FaultContext(sch.N, modules, sch.read_quorum, slots=slots)
    victims = disjoint_victims(modules, n_victims)
    tol = ctx.tolerance
    vals = (idx * 7 + 3) % _VAL_MOD
    old_vals = (idx * 5 + 1) % _VAL_MOD
    retry = 64 * (count + ctx.copies)
    rows: list[ThresholdRow] = []
    for k in range(tol + 2):
        expect_break = k > tol
        # -- killed-copy ladder ------------------------------------------------
        store = sch.make_store()
        sch.write(idx, values=vals, store=store, time=1)
        plan = TargetedAttack(copies_per_victim=k, victims=victims).plan(
            ctx, 1.0, seed=seed
        )
        res = sch.read(
            idx, store=store, time=2, retry_limit=retry, **plan.access_kwargs()
        )
        dead = plan.dead_copy_counts(modules)
        _check_invariant(
            res, vals, dead, tol, f"threshold q={q} killed k={k}", violations
        )
        lost = _lost_mask(res, count)
        lost_victims = int(np.count_nonzero(lost[victims]))
        wrong_victims = int(
            np.count_nonzero(
                (~lost[victims]) & (res.values[victims] != vals[victims])
            )
        )
        ok = (
            lost_victims == victims.size and wrong_victims == 0
            if expect_break
            else lost_victims == 0 and wrong_victims == 0
        )
        if not ok:
            violations.append(
                f"threshold q={q} killed k={k}: expected "
                f"{'total loss' if expect_break else 'no damage'}, saw "
                f"{lost_victims} lost / {wrong_victims} wrong of "
                f"{victims.size} victims"
            )
        rows.append(
            ThresholdRow(
                q=q, attack="killed", k=k, n_victims=int(victims.size),
                lost_victims=lost_victims, wrong_victims=wrong_victims,
                expect_break=expect_break, ok=ok,
            )
        )
        # -- stale-copy ladder -------------------------------------------------
        store = sch.make_store()
        _propagate(store, modules, slots, old_vals, 1)
        _propagate(store, modules, slots, vals, 2)
        plan = StaleCopies(copies_per_victim=k, victims=victims).plan(
            ctx, 1.0, seed=seed
        )
        StaleCopies.apply(plan, store, ctx, old_vals, 1)
        kwargs: dict = {"retry_limit": retry}
        if expect_break and plan.stale is not None:
            # kill the fresh remnant: the stale majority becomes the only
            # reachable quorum, forcing the silent corruption the paper's
            # threshold predicts just past q/2
            stale_cols = plan.stale[1].reshape(victims.size, -1)
            fresh_mods = []
            for i, v in enumerate(victims):
                cols = np.setdiff1d(np.arange(ctx.copies), stale_cols[i])
                fresh_mods.append(modules[int(v), cols])
            failed = np.unique(np.concatenate(fresh_mods)).astype(np.int64)
            kwargs.update(failed_modules=failed, allow_partial=True)
        res = sch.read(idx, store=store, time=3, **kwargs)
        stale_counts = plan.stale_copy_counts(count)
        dead = (
            np.isin(modules, kwargs["failed_modules"]).sum(axis=1)
            if "failed_modules" in kwargs
            else np.zeros(count, dtype=np.int64)
        )
        _check_invariant(
            res, vals, stale_counts + dead, tol,
            f"threshold q={q} stale k={k}", violations,
        )
        lost = _lost_mask(res, count)
        lost_victims = int(np.count_nonzero(lost[victims]))
        wrong_victims = int(
            np.count_nonzero(
                (~lost[victims]) & (res.values[victims] != vals[victims])
            )
        )
        ok = (
            wrong_victims + lost_victims == victims.size
            if expect_break
            else lost_victims == 0 and wrong_victims == 0
        )
        if not ok:
            violations.append(
                f"threshold q={q} stale k={k}: expected "
                f"{'corruption/loss' if expect_break else 'exact reads'}, "
                f"saw {lost_victims} lost / {wrong_victims} wrong of "
                f"{victims.size} victims"
            )
        rows.append(
            ThresholdRow(
                q=q, attack="stale", k=k, n_victims=int(victims.size),
                lost_victims=lost_victims, wrong_victims=wrong_victims,
                expect_break=expect_break, ok=ok,
            )
        )
    return rows


def _run_scenario(
    sch,
    idx: np.ndarray,
    modules: np.ndarray,
    slots: np.ndarray,
    ctx: FaultContext,
    model: FaultModel,
    intensity: float,
    q: int,
    seed: int,
    violations: list[str],
) -> ScenarioRow:
    """One (model, intensity) point: degraded write + read, invariant
    check, iteration overhead vs a fault-free twin read."""
    count = idx.shape[0]
    tol = ctx.tolerance
    vals = (idx * 7 + 3) % _VAL_MOD
    old_vals = (idx * 5 + 1) % _VAL_MOD
    retry = 64 * (count + ctx.copies)
    plan = model.plan(ctx, intensity, seed=seed)

    store = sch.make_store()
    _propagate(store, modules, slots, old_vals, 1)
    expected = vals.copy()
    if plan.stale is not None:
        # staleness is measured against a fully propagated write
        _propagate(store, modules, slots, vals, 2)
        StaleCopies.apply(plan, store, ctx, old_vals, 1)
    else:
        kw = dict(plan.access_kwargs())
        if kw:
            kw["retry_limit"] = retry
        wres = sch.write(idx, values=vals, store=store, time=2, **kw)
        lost_w = _lost_mask(wres, count)
        expected[lost_w] = old_vals[lost_w]  # never written; old value stands

    # fault-free twin: the iteration cost the faults are charged against
    base = sch.read(idx, store=sch.make_store(), time=1)
    kw = dict(plan.access_kwargs())
    if kw or plan.grey_periods is not None:
        kw["retry_limit"] = retry
    res = sch.read(idx, store=store, time=3, **kw)

    faulty = plan.dead_copy_counts(modules) + plan.stale_copy_counts(count)
    where = f"scenario q={q} {model.name} intensity={intensity}"
    wrong_below, lost_below = _check_invariant(
        res, expected, faulty, tol, where, violations
    )
    rep = res.fault_report
    if rep is not None:
        rep.with_baseline(base.total_iterations, res.total_iterations)
    extra = res.total_iterations - base.total_iterations
    lost_n = int(_lost_mask(res, count).sum())
    degraded = rep.n_degraded if rep is not None else 0
    satisfied = count - lost_n - degraded
    if _obs.metrics_enabled():
        m = _obs.metrics()
        m.counter("faults.scenarios", model=model.name).inc()
        m.counter("faults.lost").inc(lost_n)
        m.counter("faults.violations").inc(wrong_below + lost_below)
    return ScenarioRow(
        q=q, model=model.name, intensity=float(intensity),
        n_requests=count, satisfied=satisfied, degraded=degraded,
        lost=lost_n, wrong_below=wrong_below, lost_below=lost_below,
        extra_iterations=int(extra), ok=(wrong_below + lost_below) == 0,
    )


def run_campaign(
    qs: tuple[int, ...] = (2, 4, 8),
    intensities: tuple[float, ...] = (0.0, 0.05, 0.15),
    models: list[FaultModel] | None = None,
    n_victims: int = 12,
    n_requests: int | None = None,
    seed: int = 0,
) -> CampaignResult:
    """Run the full campaign: threshold ladders for every ``q`` plus the
    model x intensity sweep, under obs spans/metrics when enabled."""
    models = models if models is not None else default_models()
    result = CampaignResult(
        meta={
            "qs": list(qs),
            "intensities": list(intensities),
            "models": [m.name for m in models],
            "n_victims": n_victims,
            "seed": seed,
        }
    )
    with _obs.span(
        "faults.campaign", qs=list(qs), models=[m.name for m in models]
    ) as sp:
        for q in qs:
            with _obs.span("faults.threshold", q=q):
                result.thresholds.extend(
                    threshold_experiment(
                        q, n_victims=n_victims, n_requests=n_requests,
                        seed=seed, violations=result.violations,
                    )
                )
            sch = harness_for_q(q, seed)
            count = n_requests or min(sch.N, sch.M, 600)
            idx = sch.random_request_set(count, seed=seed)
            modules, slots = sch.placement_for(idx)
            ctx = FaultContext(sch.N, modules, sch.read_quorum, slots=slots)
            for model in models:
                for intensity in intensities:
                    with _obs.span(
                        "faults.scenario", q=q, model=model.name,
                        intensity=float(intensity),
                    ):
                        result.scenarios.append(
                            _run_scenario(
                                sch, idx, modules, slots, ctx, model,
                                intensity, q, seed, result.violations,
                            )
                        )
        sp.add(violations=len(result.violations))
    return result


def render_markdown(result: CampaignResult) -> str:
    """The campaign report as markdown (threshold + sweep tables)."""
    lines = ["# Fault-injection campaign", ""]
    verdict = "PASS" if result.ok else "FAIL"
    lines.append(
        f"**Verdict: {verdict}** -- {len(result.violations)} semantic "
        f"violation(s) below the q/2 threshold."
    )
    lines.append("")
    meta = result.meta
    if meta:
        lines.append(
            f"q in {meta.get('qs')}, intensities {meta.get('intensities')}, "
            f"models {meta.get('models')}, seed {meta.get('seed')}."
        )
        lines.append("")
    lines.append("## q/2 threshold ladders")
    lines.append("")
    lines.append(
        "Exactly k copies of each disjoint victim are attacked; the paper "
        "predicts full availability and exact reads up to k = q/2 and the "
        "first loss (killed) / silent stale read (stale) at k = q/2 + 1."
    )
    lines.append("")
    lines.append("| q | attack | k | victims | lost | wrong | side | ok |")
    lines.append("|---|--------|---|---------|------|-------|------|----|")
    for r in result.thresholds:
        side = "break" if r.expect_break else "tolerate"
        mark = "yes" if r.ok else "**NO**"
        lines.append(
            f"| {r.q} | {r.attack} | {r.k} | {r.n_victims} | "
            f"{r.lost_victims} | {r.wrong_victims} | {side} | {mark} |"
        )
    lines.append("")
    lines.append("## Intensity sweep")
    lines.append("")
    lines.append(
        "| q | model | intensity | requests | satisfied | degraded | lost "
        "| wrong<=q/2 | lost<=q/2 | extra iters | ok |"
    )
    lines.append(
        "|---|-------|-----------|----------|-----------|----------|------"
        "|-----------|----------|-------------|----|"
    )
    for s in result.scenarios:
        mark = "yes" if s.ok else "**NO**"
        lines.append(
            f"| {s.q} | {s.model} | {s.intensity} | {s.n_requests} | "
            f"{s.satisfied} | {s.degraded} | {s.lost} | {s.wrong_below} | "
            f"{s.lost_below} | {s.extra_iterations} | {mark} |"
        )
    lines.append("")
    if result.violations:
        lines.append("## Violations")
        lines.append("")
        for v in result.violations:
            lines.append(f"- {v}")
        lines.append("")
    return "\n".join(lines)


def write_report(result: CampaignResult, out_dir: str) -> tuple[str, str]:
    """Write ``faults_campaign.md`` + ``.json`` under ``out_dir``;
    returns (md_path, json_path)."""
    os.makedirs(out_dir, exist_ok=True)
    md_path = os.path.join(out_dir, REPORT_BASENAME + ".md")
    json_path = os.path.join(out_dir, REPORT_BASENAME + ".json")
    with open(md_path, "w") as fh:
        fh.write(render_markdown(result))
    with open(json_path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2)
    return md_path, json_path
