"""Campaign-runner tests: ladder sharpness, sweeps, report round-trip."""

import json

import pytest

import repro.obs as obs
from repro.faults.campaign import (
    CampaignResult,
    ScenarioRow,
    ThresholdRow,
    harness_for_q,
    render_markdown,
    run_campaign,
    threshold_experiment,
    write_report,
)
from repro.faults.models import RandomCrashes, StaleCopies


class TestHarness:
    def test_q2_and_q4_use_the_paper_scheme(self):
        for q in (2, 4):
            sch = harness_for_q(q)
            assert sch.copies_per_variable == q + 1
            assert sch.read_quorum == q // 2 + 1
            assert sch.name == "pietracaprina-preparata"

    def test_larger_q_uses_random_placement(self):
        sch = harness_for_q(8)
        assert sch.copies_per_variable == 9
        assert sch.read_quorum == 5

    @pytest.mark.parametrize("bad", [0, 3, -2])
    def test_odd_or_nonpositive_q_rejected(self, bad):
        with pytest.raises(ValueError, match="even"):
            harness_for_q(bad)


class TestThresholdExperiment:
    def test_q2_ladder_is_sharp(self):
        violations: list[str] = []
        rows = threshold_experiment(
            2, n_victims=4, n_requests=100, seed=3, violations=violations
        )
        assert not violations
        assert len(rows) == 2 * 3  # k = 0, 1, 2 for both attacks
        for r in rows:
            assert r.ok
            if r.expect_break:
                assert r.k == 2  # q/2 + 1
                if r.attack == "killed":
                    assert r.lost_victims == r.n_victims
                else:
                    assert r.wrong_victims == r.n_victims
            else:
                assert r.lost_victims == 0 and r.wrong_victims == 0

    def test_threshold_rows_cover_both_attacks(self):
        rows = threshold_experiment(2, n_victims=3, n_requests=60)
        assert {r.attack for r in rows} == {"killed", "stale"}


class TestRunCampaign:
    def test_mini_campaign_passes_and_reports(self, tmp_path):
        res = run_campaign(
            qs=(2,),
            intensities=(0.0, 0.1),
            models=[RandomCrashes(), StaleCopies()],
            n_victims=3,
            n_requests=80,
            seed=2,
        )
        assert res.ok
        assert len(res.scenarios) == 4
        zero = [s for s in res.scenarios if s.intensity == 0.0]
        assert all(
            s.lost == 0 and s.degraded == 0 and s.extra_iterations == 0
            for s in zero
        )
        md_path, json_path = write_report(res, str(tmp_path))
        text = (tmp_path / "faults_campaign.md").read_text()
        assert "Verdict: PASS" in text
        with open(json_path) as fh:
            round_trip = CampaignResult.from_dict(json.load(fh))
        assert round_trip.ok
        assert [r.__dict__ for r in round_trip.thresholds] == [
            r.__dict__ for r in res.thresholds
        ]
        assert [s.__dict__ for s in round_trip.scenarios] == [
            s.__dict__ for s in res.scenarios
        ]

    def test_campaign_emits_metrics(self):
        obs.enable_metrics()
        obs.metrics().reset()
        try:
            run_campaign(
                qs=(2,), intensities=(0.1,), models=[RandomCrashes()],
                n_victims=2, n_requests=60, seed=1,
            )
            snap = obs.metrics().snapshot()
        finally:
            obs.disable_metrics()
        names = {k.split("{")[0] for k in snap}
        assert "faults.scenarios" in names
        assert "faults.violations" in names

    def test_violations_render_as_failure(self):
        res = CampaignResult(
            thresholds=[
                ThresholdRow(
                    q=2, attack="killed", k=1, n_victims=2, lost_victims=2,
                    wrong_victims=0, expect_break=False, ok=False,
                )
            ],
            scenarios=[
                ScenarioRow(
                    q=2, model="crash", intensity=0.1, n_requests=10,
                    satisfied=8, degraded=0, lost=2, wrong_below=0,
                    lost_below=2, extra_iterations=0, ok=False,
                )
            ],
            violations=["threshold q=2 killed k=1: 2 lost below threshold"],
        )
        assert not res.ok
        text = render_markdown(res)
        assert "Verdict: FAIL" in text
        assert "## Violations" in text
        assert "**NO**" in text


class TestPackageSurface:
    def test_campaign_symbols_resolve_lazily(self):
        import repro.faults as F

        assert F.run_campaign is run_campaign
        assert F.CampaignResult is CampaignResult
        assert F.harness_for_q is harness_for_q

    def test_unknown_attribute_raises(self):
        import repro.faults as F

        with pytest.raises(AttributeError, match="mixer"):
            F.mixer


class TestCampaignCliOut:
    def test_missing_out_dir_fails_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.faults.campaign as campaign
        from repro.cli import main

        def must_not_run(*a, **kw):
            raise AssertionError("campaign ran before --out was checked")

        monkeypatch.setattr(campaign, "run_campaign", must_not_run)
        missing = tmp_path / "nope"
        assert main(["faults", "campaign", "--out", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not a directory" in err
        assert not missing.exists()

    def test_dash_skips_writing(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["faults", "campaign", "--qs", "2", "--intensities",
                     "0.1", "--victims", "3", "--requests", "80",
                     "--out", "-"]) == 0
        assert list(tmp_path.iterdir()) == []
