"""Tests for the experiment harnesses (tiny-scale shape checks)."""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments import (TABLE_I, TABLE_II, figure11_schemes,
                               render_figure10, render_figure11,
                               render_figure14, render_mix_table,
                               render_slowdown_table, run_injection_study,
                               run_matrix, run_performance_study,
                               run_power_study, run_scheme, table_iii,
                               table_iv_rows)
from repro.gpu.power import PowerModel
from repro.workloads import ALL_ORDER, get_workload


@pytest.fixture(scope="module")
def tiny_perf():
    return run_performance_study(workloads=("gaussian", "btree"),
                                 scale=0.25, seed=0)


@pytest.fixture(scope="module")
def tiny_injection():
    return run_injection_study(sample_count=80, site_count=50,
                               units=("fxp-add-32",))


class TestInjectionHarness:
    def test_severity_sums_to_one(self, tiny_injection):
        for dist in tiny_injection.severity.values():
            total = sum(estimate.mean for estimate in dist.values())
            assert total == pytest.approx(1.0)

    def test_all_codes_present(self, tiny_injection):
        risks = tiny_injection.sdc_risk["fxp-add-32"]
        assert set(figure11_schemes()) == set(risks)

    def test_renderers_produce_text(self, tiny_injection):
        assert "fxp-add-32" in render_figure10(tiny_injection)
        assert "MEAN" in render_figure11(tiny_injection)


class TestPerformanceHarness:
    def test_everything_verified(self, tiny_perf):
        assert tiny_perf.all_verified()

    def test_slowdowns_positive_and_ordered(self, tiny_perf):
        assert tiny_perf.mean_slowdown("swdup") > \
            tiny_perf.mean_slowdown("pre-mad")

    def test_mix_fractions_cover_bloat(self, tiny_perf):
        fractions = tiny_perf.mix_fractions("btree", "swdup")
        total = sum(fractions.values())
        assert total == pytest.approx(
            1.0 + tiny_perf.bloat("btree", "swdup"), abs=1e-9)

    def test_renderers(self, tiny_perf):
        assert "MEAN" in render_slowdown_table(tiny_perf)
        assert "btree/swdup" in render_mix_table(tiny_perf)

    def test_rejected_scheme_recorded(self):
        instance = get_workload("snap").build(scale=0.12)
        run = run_scheme(instance, "interthread")
        assert run.rejected


class TestPowerHarness:
    def test_power_study(self):
        study = run_power_study(scale=0.12)
        text = render_figure14(study)
        assert "power" in text
        for workload in study.grid:
            for scheme in ("swdup", "swap-ecc"):
                assert study.grid[workload][scheme].power.watts > 0

    def test_power_model_monotone_in_activity(self):
        from repro.gpu.device import LaunchResult
        from repro.gpu import ResilienceState
        from repro.gpu.timing import Occupancy

        def result(issued):
            return LaunchResult(
                kernel_name="k", cycles=1000, seconds=1e-6,
                occupancy=Occupancy(1, 1, 1, "ctas"), issued=issued,
                issued_by_pipe={"alu": issued}, memory_transactions=0,
                resilience=ResilienceState())

        model = PowerModel()
        assert model.estimate(result(2000)).watts > \
            model.estimate(result(100)).watts


#: sha256 of the sorted-keys JSON of every cell of
#: ``run_matrix(<ALL_ORDER but matmul>, PINNED_SCHEMES, scale=0.05,
#: seed=0)``: cycles, simulated seconds, verified and rejected flags,
#: occupancy, mix counts and the power floats' reprs.  A change meant
#: only to speed up the SM timing model must leave it bit-identical.
PINNED_SCHEMES = ("baseline", "swap-ecc", "interthread")
PINNED_TIMING_GRID = \
    "8a3f98be6f22fd80c0591ca77c76247ae4a98dd42b925be88823b6941089f1be"

#: the same digest over the Fig 12/15/16 schemes ``PINNED_SCHEMES``
#: leaves out
REMAINING_SCHEMES = ("swdup", "pre-addsub", "pre-mad",
                     "interthread-nocheck", "pre-fxp", "pre-fp-addsub",
                     "pre-fp-mad")
REMAINING_TIMING_GRID = \
    "443d26693475b28c00750c7fd961e5349ae8d031b618d7768ccfa3c11c184405"


def timing_grid_digest(schemes) -> str:
    """sha256 of the raw timing cells of ``schemes`` at scale 0.05."""
    workloads = tuple(name for name in ALL_ORDER if name != "matmul")
    grid = run_matrix(workloads, schemes, scale=0.05, seed=0)
    raw = {workload: {scheme: {
        "cycles": run.cycles, "seconds": run.seconds,
        "verified": run.verified, "rejected": run.rejected,
        "warps_per_sm": run.warps_per_sm,
        "registers_per_thread": run.registers_per_thread,
        "mix": dataclasses.asdict(run.mix),
        "power": [repr(run.power.seconds),
                  repr(run.power.dynamic_joules),
                  repr(run.power.static_watts)]}
        for scheme, run in runs.items()}
        for workload, runs in grid.items()}
    payload = json.dumps(raw, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestPinnedTimingModel:
    def test_grid_matches_pinned_digest(self):
        assert timing_grid_digest(PINNED_SCHEMES) == PINNED_TIMING_GRID

    def test_remaining_schemes_match_pinned_digest(self):
        assert timing_grid_digest(REMAINING_SCHEMES) == \
            REMAINING_TIMING_GRID


class TestStaticTables:
    def test_table_i_shape(self):
        assert len(TABLE_I) == 5
        for row in TABLE_I.values():
            assert set(row) == {"granularity", "sphere", "sw_changes",
                                "hw_changes", "transparent",
                                "performance_hit", "major_issue"}

    def test_table_ii_mentions_compiler_and_isa(self):
        structures = " ".join(row["structure"] for row in TABLE_II)
        assert "Compiler" in structures
        assert "ISA" in structures

    def test_table_iii_modulus_independent_value(self):
        for modulus in (3, 7, 15, 127):
            rows = table_iii(modulus)
            for row in rows:
                signal = int(row["signal"], 2)
                want = (row["cin"] - row["cout"]) % modulus
                assert signal % modulus == want

    def test_table_iv_complete(self):
        rows = table_iv_rows()
        sections = {row.section for row in rows}
        assert sections == {"original", "swap-ecc", "swap-predict"}
