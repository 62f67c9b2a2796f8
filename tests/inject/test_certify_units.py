"""Tests for the certify and mbu-sweep campaign work-unit kinds."""

import pytest

from repro.certify import certify_scheme, tampered_secded_dp
from repro.errors import InjectionError
from repro.inject import (CampaignEngine, EngineConfig, certify_work_unit,
                          detection_coverage, mbu_sweep_work_unit)
from repro.inject.engine import BatchSpec, run_mbu_sweep_batch


def inline_engine(batch_size=1, max_batches=1):
    return CampaignEngine(EngineConfig(
        batch_size=batch_size, max_batches=max_batches, ci_half_width=None,
        timeout_s=None, isolation="inline"))


class TestCertifyUnit:
    def test_registered_scheme_certifies_through_the_engine(self):
        report = inline_engine().run([certify_work_unit("parity")])
        unit = report.units["certify/parity/fast"]
        assert unit.status == "completed"
        assert unit.trials > 1000
        assert unit.counts["sdc"] == 0
        assert unit.counts["masked"] == unit.trials
        payload = unit.payloads[0]
        assert payload["kind"] == "swapcodes-guarantee-certificate"
        assert payload["passed"] is True

    def test_tampered_scheme_fails_loudly_in_payload(self):
        unit = certify_work_unit(
            "secded-dp-tampered", mode="fast",
            scheme_instance=tampered_secded_dp("zero-column"))
        report = inline_engine().run([unit])
        terminal = report.units["certify/secded-dp-tampered/fast"]
        assert terminal.counts["sdc"] > 0
        payload = terminal.payloads[0]
        assert payload["passed"] is False
        assert "detects-all-single-pipeline" in payload["violated"]
        counterexample = payload["claims"]["detects-all-single-pipeline"][
            "counterexample"]
        assert counterexample["weight"] == 1

    def test_monitored_proportion_is_claim_pass_rate(self):
        report = inline_engine().run([certify_work_unit("mod7")])
        unit = report.units["certify/mod7/fast"]
        assert unit.successes == unit.trials

    @pytest.mark.parametrize("isolation", ["inline", "process"])
    def test_journaled_unit_replays_without_a_second_sweep(
            self, tmp_path, isolation):
        journal = str(tmp_path / "certify.jsonl")

        def run():
            engine = CampaignEngine(EngineConfig(
                batch_size=1, max_batches=1, ci_half_width=None,
                timeout_s=None, isolation=isolation))
            report = engine.run([certify_work_unit("secded-dp")],
                                journal_path=journal)
            return report.units["certify/secded-dp/fast"].payloads

        first = run()
        with open(journal, encoding="utf-8") as handle:
            lines = handle.readlines()
        second = run()
        with open(journal, encoding="utf-8") as handle:
            assert handle.readlines() == lines
        assert first == second
        assert first == [certify_scheme("secded-dp").to_dict()]


class TestMbuSweepUnit:
    def test_unit_runs_and_classifies(self):
        unit = mbu_sweep_work_unit("pathfinder", 2, scale=0.12, seed=4)
        report = inline_engine(batch_size=6).run([unit])
        terminal = report.units["pathfinder/secded-dp/m2"]
        assert terminal.status == "completed"
        assert terminal.payloads[0]["multiplicity"] == 2
        visible = sum(detection_coverage(terminal.counts).values())
        assert visible == pytest.approx(1.0) or visible == 0.0

    def test_burst_pattern_and_lane_spread_accepted(self):
        unit = mbu_sweep_work_unit("pathfinder", 3, scale=0.12, seed=4,
                                   pattern="burst", lane_spread=2,
                                   where="result")
        report = inline_engine(batch_size=4).run([unit])
        terminal = report.units["pathfinder/secded-dp/m3"]
        assert terminal.status == "completed"
        assert terminal.payloads[0]["pattern"] == "burst"
        assert terminal.payloads[0]["lane_spread"] == 2

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(InjectionError):
            run_mbu_sweep_batch({"workload": "pathfinder",
                                 "multiplicity": 0},
                                None, BatchSpec(0, 1, 0))
        with pytest.raises(InjectionError):
            run_mbu_sweep_batch({"workload": "pathfinder",
                                 "multiplicity": 40},
                                None, BatchSpec(0, 1, 0))

    def test_bad_pattern_and_lane_spread_rejected(self):
        with pytest.raises(InjectionError):
            run_mbu_sweep_batch({"workload": "pathfinder",
                                 "multiplicity": 1, "pattern": "spiral"},
                                None, BatchSpec(0, 1, 0))
        with pytest.raises(InjectionError):
            run_mbu_sweep_batch({"workload": "pathfinder", "scale": 0.12,
                                 "multiplicity": 1, "lane_spread": 0},
                                None, BatchSpec(0, 1, 0))

    def test_seed_determinism(self):
        unit = mbu_sweep_work_unit("pathfinder", 2, scale=0.12, seed=9)
        first = inline_engine(batch_size=5).run([unit])
        second = inline_engine(batch_size=5).run([unit])
        first_unit = first.units["pathfinder/secded-dp/m2"]
        second_unit = second.units["pathfinder/secded-dp/m2"]
        assert first_unit.counts == second_unit.counts
