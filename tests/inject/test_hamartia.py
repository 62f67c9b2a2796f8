"""Tests for the fault injector and campaign statistics."""

import hashlib
import json

import pytest

from repro.errors import InjectionError
from repro.gates import Netlist, build_add_unit
from repro.inject import (CampaignResult, FaultInjector, InjectionRecord,
                          classify_severity, merge_results,
                          run_unit_campaign, severity_distribution)
from repro.inject.hamartia import SEVERITY_CLASSES


def tiny_xor_unit():
    netlist = Netlist("tiny")
    a = netlist.input_bus("a", 4)
    b = netlist.input_bus("b", 4)
    out = [netlist.xor(x, y) for x, y in zip(a, b)]
    netlist.set_output("out", out)
    return netlist


class TestClassifySeverity:
    def test_classes(self):
        assert classify_severity(0b1) == "1"
        assert classify_severity(0b11) == "2-3"
        assert classify_severity(0b111) == "2-3"
        assert classify_severity(0b1111) == ">=4"
        assert classify_severity(0xFFFF_FFFF) == ">=4"

    def test_masked_rejected(self):
        with pytest.raises(InjectionError):
            classify_severity(0)


class TestFaultInjector:
    def test_xor_unit_every_fault_is_single_bit(self):
        # Each XOR gate feeds exactly one output bit, so every unmasked
        # error is a single-bit error.
        unit = tiny_xor_unit()
        injector = FaultInjector(unit)
        result = injector.run({"a": [3, 5, 9], "b": [1, 1, 1]})
        assert result.sample_count == 3
        assert result.masked_input_fraction == 0.0
        for record in result.records:
            assert record.pattern.bit_count() == 1
        dist = severity_distribution(result)
        assert dist["1"].mean == 1.0
        assert dist["2-3"].mean == 0.0

    def test_golden_values_recorded(self):
        unit = tiny_xor_unit()
        result = FaultInjector(unit).run({"a": [3], "b": [5]})
        assert all(record.golden == 3 ^ 5 for record in result.records)

    def test_site_subsampling(self):
        unit = build_add_unit(32)
        injector = FaultInjector(unit)
        result = injector.run({"a": [1, 2], "b": [3, 4]}, site_count=50)
        assert result.sites_evaluated == 50

    @pytest.mark.parametrize("site_count", [0, -2])
    def test_empty_or_negative_site_count_rejected(self, site_count):
        # None sweeps every site; fewer than one site is a vacuous sweep.
        with pytest.raises(InjectionError, match="site count must be"):
            run_unit_campaign("fxp-add-32", sample_count=8,
                              site_count=site_count)

    def test_ambiguous_output_rejected(self):
        netlist = Netlist()
        a = netlist.input_bus("a", 1)
        netlist.set_output("x", a)
        netlist.set_output("y", a)
        with pytest.raises(InjectionError):
            FaultInjector(netlist)

    def test_unknown_output_rejected(self):
        with pytest.raises(InjectionError):
            FaultInjector(tiny_xor_unit(), output="nope")

    def test_deterministic_given_seed(self):
        unit = tiny_xor_unit()
        first = FaultInjector(unit).run({"a": [3, 7], "b": [2, 2]}, seed=5)
        second = FaultInjector(unit).run({"a": [3, 7], "b": [2, 2]}, seed=5)
        assert [r.site for r in first.records] == \
            [r.site for r in second.records]

    def test_add_unit_faults_propagate_multibit(self):
        # A carry-chain fault in an adder can corrupt several output bits.
        result = run_unit_campaign("fxp-add-32", sample_count=50,
                                   site_count=120, seed=3)
        dist = severity_distribution(result)
        assert dist["1"].mean > 0.5  # single-bit dominates (paper Fig. 10)
        assert dist["1"].mean < 1.0  # but carry faults fan out
        total = sum(dist[name].mean for name in SEVERITY_CLASSES)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_class_counts_consistent_with_unmasked(self):
        result = run_unit_campaign("fxp-add-32", sample_count=20,
                                   site_count=60, seed=4)
        for counts, total in zip(result.class_counts,
                                 result.unmasked_site_counts):
            assert sum(counts.values()) == total


def empty_result():
    return CampaignResult(unit_name="empty", output_bits=4, sample_count=0,
                          sites_evaluated=0, chosen=[],
                          unmasked_site_counts=[], class_counts=[])


def fully_masked_result():
    return CampaignResult(
        unit_name="masked", output_bits=4, sample_count=3,
        sites_evaluated=10, chosen=[None, None, None],
        unmasked_site_counts=[0, 0, 0],
        class_counts=[dict.fromkeys(SEVERITY_CLASSES, 0)
                      for _ in range(3)])


class TestCampaignResultEdges:
    def test_empty_campaign_has_no_records_and_zero_fraction(self):
        result = empty_result()
        assert result.records == []
        assert result.masked_input_fraction == 0.0
        distribution = severity_distribution(result)
        assert all(distribution[name].mean == 0.0
                   for name in SEVERITY_CLASSES)

    def test_fully_masked_campaign(self):
        result = fully_masked_result()
        assert result.records == []
        assert result.masked_input_fraction == 1.0

    def test_dict_round_trip(self):
        record = InjectionRecord(site=7, pattern=0b101, golden=9)
        result = CampaignResult(
            unit_name="rt", output_bits=4, sample_count=2,
            sites_evaluated=5, chosen=[record, None],
            unmasked_site_counts=[1, 0],
            class_counts=[{"1": 0, "2-3": 1, ">=4": 0},
                          dict.fromkeys(SEVERITY_CLASSES, 0)])
        restored = CampaignResult.from_dict(result.to_dict())
        assert restored == result

    def test_merge_concatenates_batches(self):
        record = InjectionRecord(site=1, pattern=0b1, golden=2)
        unmasked = CampaignResult(
            unit_name="m", output_bits=4, sample_count=1,
            sites_evaluated=5, chosen=[record],
            unmasked_site_counts=[1],
            class_counts=[{"1": 1, "2-3": 0, ">=4": 0}])
        masked = CampaignResult(
            unit_name="m", output_bits=4, sample_count=2,
            sites_evaluated=3, chosen=[None, None],
            unmasked_site_counts=[0, 0],
            class_counts=[dict.fromkeys(SEVERITY_CLASSES, 0)
                          for _ in range(2)])
        merged = merge_results([unmasked, masked])
        assert merged.sample_count == 3
        assert merged.sites_evaluated == 5  # largest single-batch sweep
        assert merged.chosen == [record, None, None]
        assert merged.masked_input_fraction == pytest.approx(2 / 3)

    def test_merge_rejects_mixed_units_and_empty(self):
        with pytest.raises(InjectionError):
            merge_results([])
        with pytest.raises(InjectionError):
            merge_results([empty_result(), fully_masked_result()])


#: sha256 of the sorted-keys JSON of ``run_unit_campaign(unit, 64, 24,
#: seed=index).to_dict()`` for each Figure 10 unit, plus fxp-add-32 over
#: every fault site.  These are the raw Fig 10/11 counts: a change meant
#: only to speed up fault simulation must leave them bit-identical.
PINNED_CAMPAIGNS = {
    ("fxp-add-32", 24, 0):
        "105365ae1a7323dab18869d9714cfdfd8048e597b1a1fd96087d5a8ff267e13e",
    ("fxp-mad-32", 24, 1):
        "6a71e44fe94813ea3902489b926db4c5a29ad11bdcca33eaada47a18b7d2167c",
    ("fp-add-32", 24, 2):
        "7438341a571b6ae9fb8222ada74d1cddb34308b898abecd41fe682a3ca59788b",
    ("fp-mad-32", 24, 3):
        "6708795cb290c1f9f201b7729417f23d514711f945a92c4c934112fec55ed6f0",
    ("fp-add-64", 24, 4):
        "3cdbe36f70cc40633ce25b5e63f31bd8558de33f640254ff5126a681b72cfd78",
    ("fp-mad-64", 24, 5):
        "8a6555add76214d8f58b783bf37c61a503a4a5a863a3156fbabfc0bf1f227ae9",
    ("fxp-add-32", None, 0):
        "7816f220c54c34f8091058f9790330948f53869fe15396b05c57fd3fc4587764",
}


class TestPinnedCampaignCounts:
    @pytest.mark.parametrize("unit,site_count,seed", list(PINNED_CAMPAIGNS),
                             ids=str)
    def test_counts_match_pinned_digest(self, unit, site_count, seed):
        result = run_unit_campaign(unit, 64, site_count, seed=seed)
        payload = json.dumps(result.to_dict(), sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == PINNED_CAMPAIGNS[(unit, site_count, seed)]
