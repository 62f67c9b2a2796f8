"""Turning injection campaigns into the paper's Figures 10 and 11 metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.ecc.swap import SwapScheme
from repro.ecc.vectorized import READ_DUE, parity_many
from repro.errors import InjectionError
from repro.inject.hamartia import SEVERITY_CLASSES, CampaignResult


@dataclass(frozen=True)
class Estimate:
    """A fraction with its normal-approximation 95% confidence interval."""

    mean: float
    ci95: float

    def __str__(self) -> str:
        return f"{self.mean * 100:.2f}% ± {self.ci95 * 100:.2f}%"


def _proportion_estimate(values: Sequence[float]) -> Estimate:
    if not values:
        return Estimate(0.0, 0.0)
    count = len(values)
    mean = sum(values) / count
    if count < 2:
        return Estimate(mean, 0.0)
    variance = sum((value - mean) ** 2 for value in values) / (count - 1)
    return Estimate(mean, 1.96 * math.sqrt(variance / count))


def severity_distribution(result: CampaignResult) -> Dict[str, Estimate]:
    """Figure 10: fraction of unmasked errors per severity class.

    Computed as the mean (over input samples) of each sample's conditional
    distribution across its unmasked sites — the exact quantity the paper
    estimates by sampling one unmasked injection per input.
    """
    per_sample: Dict[str, List[float]] = {name: [] for name
                                          in SEVERITY_CLASSES}
    for counts, total in zip(result.class_counts,
                             result.unmasked_site_counts):
        if total == 0:
            continue
        for name in SEVERITY_CLASSES:
            per_sample[name].append(counts[name] / total)
    return {name: _proportion_estimate(values)
            for name, values in per_sample.items()}


def split_into_registers(pattern: int, golden: int, output_bits: int,
                         register_bits: int = 32
                         ) -> List[Tuple[int, int]]:
    """Split a wide output into the 32b register writes the RF sees.

    Returns (golden_word, pattern_word) pairs, one per constituent
    register.  The paper considers a 64b-output error detected if *either*
    register produces a DUE.
    """
    words = max(1, (output_bits + register_bits - 1) // register_bits)
    mask = (1 << register_bits) - 1
    return [((golden >> (word * register_bits)) & mask,
             (pattern >> (word * register_bits)) & mask)
            for word in range(words)]


def record_is_detected(scheme: SwapScheme, pattern: int, golden: int,
                       output_bits: int) -> bool:
    """Would this pipeline error be caught at register readback?

    The faulty unit belongs to the *original* instruction: the register
    ends up holding the erroneous data with the clean shadow's check bits
    (and, for DP schemes, a parity bit the original computed from the bad
    data).  Detection means at least one erroneous register word raises a
    DUE; an error is also harmless if every word reads back as the correct
    value (a correction repaired it).
    """
    if pattern == 0:
        raise InjectionError("masked record has no detection outcome")
    all_repaired = True
    for golden_word, pattern_word in split_into_registers(
            pattern, golden, output_bits):
        if pattern_word == 0:
            continue
        bad_word = golden_word ^ pattern_word
        word = scheme.write_shadow(scheme.write_original(bad_word),
                                   golden_word)
        outcome = scheme.read(word)
        if outcome.is_due:
            return True
        if outcome.data != golden_word:
            all_repaired = False
    return all_repaired


def detection_outcomes(scheme: SwapScheme,
                       result: CampaignResult) -> np.ndarray:
    """Per-record detection verdicts for a whole campaign, batched.

    Equivalent to calling :func:`record_is_detected` on every unmasked
    record, but every erroneous register word of the campaign runs
    through one vectorized
    :meth:`~repro.ecc.swap.SwapScheme.read_many` call — the encode/
    decode batching that keeps large Figure 11 sweeps off the scalar
    Python decoder.  Returns a boolean array aligned with
    ``result.records``.
    """
    records = result.records
    detected = np.zeros(len(records), dtype=bool)
    repaired = np.ones(len(records), dtype=bool)
    index: List[int] = []
    golden_words: List[int] = []
    bad_words: List[int] = []
    for position, record in enumerate(records):
        if record.pattern == 0:
            raise InjectionError("masked record has no detection outcome")
        for golden_word, pattern_word in split_into_registers(
                record.pattern, record.golden, result.output_bits):
            if pattern_word == 0:
                continue
            index.append(position)
            golden_words.append(golden_word)
            bad_words.append(golden_word ^ pattern_word)
    if not index:
        return detected
    word_index = np.array(index, dtype=np.intp)
    golden = np.array(golden_words, dtype=np.uint64)
    data = np.array(bad_words, dtype=np.uint64)
    # The register ends up holding the erroneous data with the clean
    # shadow's check bits and (for DP schemes) a parity bit the original
    # computed from the bad data — the same word record_is_detected builds
    # one at a time.
    check = scheme.code.encode_many(golden)
    dp = parity_many(data) if scheme.uses_data_parity else None
    batch = scheme.read_many(data, check, dp)
    np.logical_or.at(detected, word_index, batch.status == READ_DUE)
    np.logical_and.at(repaired, word_index, batch.data == golden)
    return detected | repaired


def sdc_risk(result: CampaignResult, scheme: SwapScheme) -> Estimate:
    """Figure 11: probability an unmasked pipeline error goes undiagnosed."""
    outcomes = [0.0 if verdict else 1.0
                for verdict in detection_outcomes(scheme, result)]
    return _proportion_estimate(outcomes)


def sdc_risk_sweep(result: CampaignResult,
                   schemes: Sequence[SwapScheme]) -> Dict[str, Estimate]:
    """SDC risk of one unit's campaign under every scheme, keyed by name."""
    return {scheme.name: sdc_risk(result, scheme) for scheme in schemes}


#: the collapsed bins of a GPU unit's detection-rate sweep: ``detected``
#: folds every loud outcome (due, trap, hang, crash) while ``masked``
#: and ``sdc`` keep their engine meanings
DETECTION_CLASSES = ("detected", "masked", "sdc")

#: the engine outcome keys that count as a loud detection
_DETECTED_OUTCOMES = ("due", "trap", "hang", "crash")


def detection_coverage(counts: Dict[str, int]) -> Dict[str, float]:
    """Collapse a GPU unit's tallies into detection fractions.

    Returns each :data:`DETECTION_CLASSES` bin as a fraction of the
    architecturally *visible* trials (``not_hit`` excluded): ``detected``
    is the scheme's coverage, ``sdc`` its escape rate, and ``masked``
    the benign remainder.
    """
    detected = sum(counts.get(name, 0) for name in _DETECTED_OUTCOMES)
    masked = counts.get("masked", 0)
    sdc = counts.get("sdc", 0)
    visible = detected + masked + sdc
    if visible == 0:
        return {name: 0.0 for name in DETECTION_CLASSES}
    return {"detected": detected / visible, "masked": masked / visible,
            "sdc": sdc / visible}

