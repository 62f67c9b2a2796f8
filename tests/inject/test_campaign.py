"""Tests for the six-unit campaign front-end over the resilient engine."""

import os
import subprocess
import sys

import pytest

from repro.errors import InjectionError
from repro.inject import (EngineConfig, run_full_campaign,
                          run_unit_campaign, unit_inputs)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class TestUnitInputs:
    def test_positive_count_required(self):
        with pytest.raises(InjectionError, match="must be positive"):
            unit_inputs("fxp-add-32", 0)
        with pytest.raises(InjectionError, match="must be positive"):
            unit_inputs("fxp-add-32", -5)

    def test_unknown_unit_rejected(self):
        with pytest.raises(InjectionError, match="unknown unit"):
            unit_inputs("fp-div-128", 10)

    def test_valid_count_produces_buses(self):
        samples = unit_inputs("fxp-mad-32", 7, seed=1)
        assert set(samples) == {"a", "b", "c"}
        assert all(len(values) == 7 for values in samples.values())


class TestRunFullCampaign:
    def test_engine_path_matches_legacy_per_unit_runs(self):
        # The engine's single-batch default must reproduce the direct
        # per-unit campaigns bit for bit (seed + index per unit).
        units = ("fxp-add-32", "fxp-mad-32")
        campaigns = run_full_campaign(sample_count=25, site_count=30,
                                      seed=4, units=units)
        assert list(campaigns) == list(units)
        for index, name in enumerate(units):
            legacy = run_unit_campaign(name, 25, 30, 4 + index)
            assert campaigns[name].sample_count == legacy.sample_count
            assert [r.site for r in campaigns[name].records] == \
                [r.site for r in legacy.records]

    def test_journal_resume_skips_finished_units(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        first = run_full_campaign(sample_count=20, site_count=25, seed=1,
                                  units=("fxp-add-32",),
                                  journal_path=journal)
        again = run_full_campaign(sample_count=20, site_count=25, seed=1,
                                  units=("fxp-add-32",),
                                  journal_path=journal)
        assert [r.site for r in first["fxp-add-32"].records] == \
            [r.site for r in again["fxp-add-32"].records]

    def test_sharded_campaign_matches_single_engine(self, tmp_path):
        # shards=N is an execution strategy, not a statistical change:
        # the partitioned fabric must reproduce the single-engine run
        units = ("fxp-add-32", "fxp-mad-32")
        single = run_full_campaign(sample_count=20, site_count=25, seed=3,
                                   units=units)
        sharded = run_full_campaign(sample_count=20, site_count=25, seed=3,
                                    units=units, shards=2,
                                    fabric_dir=str(tmp_path / "fabric"))
        assert list(sharded) == list(units)
        for name in units:
            assert sharded[name].to_dict() == single[name].to_dict()

    def test_example_prints_the_same_tables_on_two_shards(self, tmp_path):
        # the entry point users run: line 1 names the journal and the
        # shard count, and every table after it matches one engine's
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))

        def tables(*options):
            return subprocess.run(
                [sys.executable,
                 os.path.join(REPO_ROOT, "examples", "injection_campaign.py"),
                 "64", "8", *options], cwd=str(tmp_path), env=env,
                capture_output=True, text=True, timeout=120,
                check=True).stdout.splitlines()

        plain = tables()
        sharded = tables("--journal", "c.jsonl", "--shards", "2")
        assert "shards=2" in sharded[0]
        assert any(line.startswith("Figure 11") for line in plain)
        assert sharded[1:] == plain[1:]

    def test_sharded_campaign_refuses_an_operand_trace(self, tmp_path):
        # shards journal and merge units by kind and params alone, so a
        # trace context cannot travel with them: a typed config error,
        # not a silently synthetic-operand campaign
        from repro.errors import FabricConfigError
        from repro.inject.operands import OperandTrace
        with pytest.raises(FabricConfigError, match="context"):
            run_full_campaign(sample_count=10, site_count=10,
                              units=("fxp-add-32",), shards=2,
                              trace=OperandTrace(),
                              fabric_dir=str(tmp_path / "fabric"))

    def test_sharded_campaign_requires_a_fabric_dir(self):
        with pytest.raises(InjectionError, match="fabric_dir"):
            run_full_campaign(sample_count=10, site_count=10,
                              units=("fxp-add-32",), shards=2)

    def test_batched_config_covers_requested_units(self, tmp_path):
        config = EngineConfig(batch_size=10, max_batches=3,
                              ci_half_width=None, timeout_s=60.0)
        campaigns = run_full_campaign(site_count=25, seed=2,
                                      units=("fxp-add-32",),
                                      journal_path=str(
                                          tmp_path / "batched.jsonl"),
                                      engine_config=config)
        assert campaigns["fxp-add-32"].sample_count == 30
