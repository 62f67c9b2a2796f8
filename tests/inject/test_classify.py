"""Tests for detection classification and SDC-risk math (Figure 11)."""

import pytest

from repro.ecc import (DetectOnlySwap, NaiveSecDedSwap, ParityCode,
                       ResidueCode, SecDedDpSwap, SecDpSwap, TedCode)
from repro.errors import InjectionError
from repro.inject import (DETECTION_CLASSES, detection_coverage,
                          detection_outcomes, record_is_detected,
                          run_unit_campaign, sdc_risk, sdc_risk_sweep,
                          split_into_registers)


class TestSplitIntoRegisters:
    def test_32_bit_output_single_register(self):
        words = split_into_registers(pattern=0b101, golden=7, output_bits=32)
        assert words == [(7, 0b101)]

    def test_64_bit_output_two_registers(self):
        golden = (0xAAAA_BBBB << 32) | 0x1111_2222
        pattern = (0x1 << 32) | 0x8000_0000
        words = split_into_registers(pattern, golden, output_bits=64)
        assert words == [(0x1111_2222, 0x8000_0000), (0xAAAA_BBBB, 0x1)]


class TestRecordIsDetected:
    ted = DetectOnlySwap(TedCode())

    def test_single_bit_always_detected_by_ted(self):
        assert record_is_detected(self.ted, pattern=1, golden=12345,
                                  output_bits=32)

    def test_triple_bit_detected_by_ted(self):
        assert record_is_detected(self.ted, pattern=0b10101, golden=999,
                                  output_bits=32)

    def test_parity_misses_double_bit(self):
        parity = DetectOnlySwap(ParityCode())
        assert not record_is_detected(parity, pattern=0b11, golden=4,
                                      output_bits=32)

    def test_residue_misses_modulus_aliased_pattern(self):
        # Flipping bits so the value changes by a multiple of 3 escapes
        # mod-3: golden 0b01 -> bad 0b100 (1 -> 4, delta 3).
        mod3 = DetectOnlySwap(ResidueCode(3))
        assert not record_is_detected(mod3, pattern=0b101, golden=1,
                                      output_bits=32)

    def test_64_bit_detected_if_either_register_dues(self):
        # Error pattern touching only the high register, detectable there.
        assert record_is_detected(self.ted, pattern=1 << 32,
                                  golden=0, output_bits=64)

    def test_secded_dp_flags_single_bit_as_due(self):
        scheme = SecDedDpSwap()
        assert record_is_detected(scheme, pattern=1 << 7, golden=42,
                                  output_bits=32)

    def test_naive_secded_counts_detected_when_corrected_right(self):
        # NaiveSecDedSwap miscorrects shadow errors but original-side
        # single-bit data errors decode as "corrected"... to the wrong
        # value (the ECC came from the clean shadow, so correction restores
        # the golden data).  That counts as repaired, not SDC.
        scheme = NaiveSecDedSwap()
        assert record_is_detected(scheme, pattern=1, golden=42,
                                  output_bits=32)

    def test_masked_record_rejected(self):
        with pytest.raises(InjectionError):
            record_is_detected(self.ted, pattern=0, golden=0, output_bits=32)


@pytest.fixture(scope="module")
def fp_mad_64_campaign():
    """One fp-mad-64 campaign, shared by every scheme below."""
    result = run_unit_campaign("fp-mad-64", sample_count=120, site_count=60,
                               seed=11)
    assert result.records, "campaign produced no unmasked records"
    return result


class TestDetectionOutcomesBatching:
    """The batched campaign classifier must equal per-record scalar calls."""

    @pytest.mark.parametrize("scheme", [
        DetectOnlySwap(ParityCode()),
        DetectOnlySwap(ResidueCode(3)),
        DetectOnlySwap(TedCode()),
        SecDedDpSwap(),
        SecDedDpSwap(check_correction="strict"),
        SecDpSwap(),
        NaiveSecDedSwap(),
    ], ids=lambda scheme: scheme.name)
    def test_matches_record_is_detected(self, scheme, fp_mad_64_campaign):
        result = fp_mad_64_campaign
        batched = detection_outcomes(scheme, result)
        scalar = [record_is_detected(scheme, record.pattern, record.golden,
                                     result.output_bits)
                  for record in result.records]
        assert list(batched) == scalar

    def test_empty_campaign_yields_empty_outcomes(self):
        from repro.inject import FaultInjector
        from tests.inject.test_hamartia import tiny_xor_unit

        result = FaultInjector(tiny_xor_unit()).run({"a": [], "b": []})
        outcomes = detection_outcomes(DetectOnlySwap(ParityCode()), result)
        assert outcomes.shape == (0,)


class TestSdcRisk:
    def test_risk_ordering_matches_code_strength(self):
        result = run_unit_campaign("fxp-add-32", sample_count=300,
                                   site_count=150, seed=7)
        schemes = [
            DetectOnlySwap(ParityCode()),
            DetectOnlySwap(ResidueCode(3)),
            DetectOnlySwap(ResidueCode(127)),
            DetectOnlySwap(TedCode()),
        ]
        risks = sdc_risk_sweep(result, schemes)
        parity = risks["swap-parity-32"].mean
        mod3 = risks["swap-mod3"].mean
        mod127 = risks["swap-mod127"].mean
        assert parity >= mod3 >= mod127
        assert mod3 < 0.05  # paper: even Mod-3 stays under 5%
        assert risks["swap-ted-39-32"].mean < 0.02

    def test_risk_is_zero_for_exhaustive_detection(self):
        # On the XOR-only toy unit from the injector tests every fault is
        # single-bit, which any residue catches.
        from tests.inject.test_hamartia import tiny_xor_unit
        from repro.inject import FaultInjector

        result = FaultInjector(tiny_xor_unit()).run(
            {"a": [3, 5], "b": [6, 2]})
        # Patterns are 4-bit wide; treat as one register.
        risk = sdc_risk(result, DetectOnlySwap(ResidueCode(7, data_bits=32)))
        assert risk.mean == 0.0


class TestDetectionCoverage:
    def test_bins_are_fractions_of_visible_trials(self):
        # due, trap, hang and crash fold into detected; not_hit and
        # corrected_in_place are not bins of their own
        counts = {"due": 3, "trap": 1, "hang": 1, "crash": 1, "masked": 2,
                  "sdc": 2, "not_hit": 30, "corrected_in_place": 2}
        assert detection_coverage(counts) == {
            "detected": 0.6, "masked": 0.2, "sdc": 0.2}

    def test_no_visible_trial_yields_zeros(self):
        assert detection_coverage({"not_hit": 5}) == \
            dict.fromkeys(DETECTION_CLASSES, 0.0)
