"""Strike-space enumeration for the guarantee certifier.

A :class:`Strike` describes one adversarial event against a SwapCodes
register in terms of *where the error entered* (the Figure 5 placements),
not just which stored bits differ — the same stored-bit flip means
different things depending on whether the original instruction, the
shadow, or the register-file array produced it, and the claim matrix is
stated per placement:

* ``pipeline-original`` — the original instruction computed a wrong
  value: the data segment and (for DP schemes) the data-parity bit both
  describe the corrupted value, while the shadow's check bits describe
  the true one.
* ``pipeline-shadow-value`` — the shadow computed a wrong value: clean
  data and DP, check bits of the wrong value.
* ``pipeline-shadow-bus`` — the shadow's writeback bus was struck: clean
  data and DP, check bits with raw flipped wires.
* ``pipeline-dp`` — the DP-generation path was struck: clean data and
  check, flipped data-parity bit.
* ``storage`` — the completed register was struck at rest: any subset of
  stored bits (data, check, DP) flips under encodings of the true value.
* ``arithmetic`` — a value-domain error ``data' = data + delta mod 2^w``
  with clean check bits, probing the residue codes' arithmetic coverage.

Enumerators below yield strikes in increasing weight so the first
violation an exhaustive sweep finds is already weight-minimal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace as _replace
from itertools import combinations
from typing import Iterator, Sequence, Tuple

from repro.bitutils import mask, popcount
from repro.ecc.swap import RegisterWord, SwapScheme
from repro.errors import CertificationError

#: the error-entry placements a Strike may name, in sweep order
PLACEMENTS = ("pipeline-original", "pipeline-shadow-value",
              "pipeline-shadow-bus", "pipeline-dp", "storage", "arithmetic")

#: placements that model a *pipeline* (compute/writeback) error
PIPELINE_PLACEMENTS = ("pipeline-original", "pipeline-shadow-value",
                       "pipeline-shadow-bus", "pipeline-dp")


@dataclass(frozen=True)
class Strike:
    """One adversarial event against a SwapCodes register.

    ``data_error``/``check_error`` are XOR masks over the data and check
    segments (whichever the placement touches), ``dp_error`` flips the
    data-parity bit, and ``delta`` is the signed value-domain error of an
    ``arithmetic`` strike.  ``tier`` records which enumeration produced
    it (``exhaustive``, ``burst``, ``random``, ``arithmetic``) for the
    certificate's sweep accounting.
    """

    placement: str
    data_error: int = 0
    check_error: int = 0
    dp_error: int = 0
    delta: int = 0
    tier: str = "exhaustive"

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise CertificationError(
                f"unknown strike placement {self.placement!r}")

    @property
    def weight(self) -> int:
        """Total number of flipped bits (value errors count their mask)."""
        return (popcount(self.data_error) + popcount(self.check_error)
                + self.dp_error)

    def describe(self) -> dict:
        """JSON-serializable description for certificate counterexamples."""
        out = {"placement": self.placement, "tier": self.tier}
        if self.data_error:
            out["data_error"] = f"0x{self.data_error:x}"
        if self.check_error:
            out["check_error"] = f"0x{self.check_error:x}"
        if self.dp_error:
            out["dp_error"] = 1
        if self.placement == "arithmetic":
            out["delta"] = self.delta
        return out


def apply_strike(scheme: SwapScheme, base: int,
                 strike: Strike) -> RegisterWord:
    """The stored register word after ``strike`` hits a pair writing ``base``.

    Built through the scheme's own write API (``write_original`` /
    ``write_shadow`` / ``storage_strike_mask``) so the certifier
    exercises exactly the machinery the simulator uses; the golden value
    is always ``base``.
    """
    data_bits = scheme.data_bits
    base &= mask(data_bits)
    if strike.placement == "pipeline-original":
        wrong = base ^ strike.data_error
        return scheme.write_shadow(scheme.write_original(wrong), base)
    if strike.placement == "pipeline-shadow-value":
        wrong = base ^ strike.data_error
        return scheme.write_shadow(scheme.write_original(base), wrong)
    if strike.placement == "pipeline-shadow-bus":
        return scheme.write_pair(base).with_check_error(strike.check_error)
    if strike.placement == "pipeline-dp":
        return scheme.write_pair(base).with_dp_error()
    if strike.placement == "storage":
        word = scheme.write_pair(base)
        if strike.data_error:
            word = word.with_data_error(strike.data_error)
        if strike.check_error:
            word = word.with_check_error(strike.check_error)
        if strike.dp_error:
            word = word.with_dp_error()
        return word
    # arithmetic: a value-domain error with clean check bits
    wrong = (base + strike.delta) % (1 << data_bits)
    word = scheme.write_pair(base)
    return word.with_data_error(word.data ^ wrong)


def _bit_masks(width: int, weight: int) -> Iterator[int]:
    """All ``width``-bit masks of exactly ``weight`` set bits."""
    for bits in combinations(range(width), weight):
        yield sum(1 << bit for bit in bits)


def exhaustive_pipeline_strikes(scheme: SwapScheme,
                                max_weight: int = 2) -> Iterator[Strike]:
    """Every pipeline strike of weight 1..``max_weight``, weight-ascending.

    A single pipeline error corrupts one producer — the original's
    datapath, the shadow's datapath, the shadow's writeback bus, or the
    DP generator — so multi-bit patterns stay confined to one segment
    (the swap invariant the paper's guarantees are stated under).
    """
    data_bits = scheme.data_bits
    check_bits = scheme.code.check_bits
    for weight in range(1, max_weight + 1):
        for error in _bit_masks(data_bits, weight):
            yield Strike("pipeline-original", data_error=error)
            yield Strike("pipeline-shadow-value", data_error=error)
        for error in _bit_masks(check_bits, weight):
            yield Strike("pipeline-shadow-bus", check_error=error)
        if weight == 1 and scheme.uses_data_parity:
            yield Strike("pipeline-dp", dp_error=1)


def exhaustive_storage_strikes(scheme: SwapScheme,
                               max_weight: int = 2) -> Iterator[Strike]:
    """Every storage strike of weight 1..``max_weight``, weight-ascending.

    Storage strikes hit the register array at rest, so the pattern may
    span the data, check, and DP segments freely — including the
    data+check doubles that probe the miscorrection boundary.
    """
    data_bits = scheme.data_bits
    check_bits = scheme.code.check_bits
    stored_bits = data_bits + check_bits + (1 if scheme.uses_data_parity
                                            else 0)
    for weight in range(1, max_weight + 1):
        for bits in combinations(range(stored_bits), weight):
            data_error = 0
            check_error = 0
            dp_error = 0
            for bit in bits:
                if bit < data_bits:
                    data_error |= 1 << bit
                elif bit < data_bits + check_bits:
                    check_error |= 1 << (bit - data_bits)
                else:
                    dp_error = 1
            yield Strike("storage", data_error=data_error,
                         check_error=check_error, dp_error=dp_error)


def burst_strikes(scheme: SwapScheme,
                  widths: Sequence[int] = (3, 4)) -> Iterator[Strike]:
    """Contiguous ``widths``-bit bursts at every position (MBU patterns).

    Field studies report multi-bit upsets as short physically-adjacent
    bursts; these sweep every burst placement over the data segment
    (pipeline and storage) and the check segment (shadow bus, storage).
    """
    data_bits = scheme.data_bits
    check_bits = scheme.code.check_bits
    for width in widths:
        for start in range(0, max(1, data_bits - width + 1)):
            error = (mask(width) << start) & mask(data_bits)
            if not error:
                continue
            yield Strike("pipeline-original", data_error=error,
                         tier="burst")
            yield Strike("pipeline-shadow-value", data_error=error,
                         tier="burst")
            yield Strike("storage", data_error=error, tier="burst")
        for start in range(0, max(1, check_bits - width + 1)):
            error = (mask(width) << start) & mask(check_bits)
            if not error:
                continue
            yield Strike("pipeline-shadow-bus", check_error=error,
                         tier="burst")
            yield Strike("storage", check_error=error, tier="burst")


def random_strikes(scheme: SwapScheme, rng: random.Random, count: int,
                   weights: Sequence[int] = (3, 4)) -> Iterator[Strike]:
    """Stratified random multi-bit strikes beyond the exhaustive tier.

    Samples ``count`` strikes per (weight, placement-family) stratum:
    pipeline value errors, shadow-bus patterns, and cross-segment
    storage patterns — the spaces too large to sweep exhaustively.
    """
    data_bits = scheme.data_bits
    check_bits = scheme.code.check_bits
    stored_bits = data_bits + check_bits + (1 if scheme.uses_data_parity
                                            else 0)
    for weight in weights:
        for _ in range(count):
            bits = rng.sample(range(data_bits), weight)
            error = sum(1 << bit for bit in bits)
            yield Strike("pipeline-original", data_error=error,
                         tier="random")
            yield Strike("pipeline-shadow-value", data_error=error,
                         tier="random")
        if weight <= check_bits:
            for _ in range(count):
                bits = rng.sample(range(check_bits), weight)
                yield Strike("pipeline-shadow-bus",
                             check_error=sum(1 << bit for bit in bits),
                             tier="random")
        for _ in range(count):
            bits = rng.sample(range(stored_bits), weight)
            data_error = sum(1 << bit for bit in bits if bit < data_bits)
            check_error = sum(1 << (bit - data_bits) for bit in bits
                              if data_bits <= bit < data_bits + check_bits)
            dp_error = int(any(bit >= data_bits + check_bits
                               for bit in bits))
            yield Strike("storage", data_error=data_error,
                         check_error=check_error, dp_error=dp_error,
                         tier="random")


def arithmetic_strikes(scheme: SwapScheme, rng: random.Random,
                       random_count: int = 32) -> Iterator[Strike]:
    """Value-domain errors probing residue arithmetic-fault coverage.

    Sweeps every ``±2^k`` (the single-wire datapath errors all residue
    moduli must catch when no wraparound intervenes), small multiples of
    the checking modulus (the aliasing patterns the predicate must
    *accept* as undetectable), and seeded random deltas.
    """
    data_bits = scheme.data_bits
    modulus = getattr(scheme.code, "modulus", None)
    for k in range(data_bits):
        yield Strike("arithmetic", delta=1 << k, tier="arithmetic")
        yield Strike("arithmetic", delta=-(1 << k), tier="arithmetic")
    if modulus is not None:
        for j in range(1, 5):
            yield Strike("arithmetic", delta=modulus * j, tier="arithmetic")
            yield Strike("arithmetic", delta=-modulus * j,
                         tier="arithmetic")
    limit = 1 << data_bits
    for _ in range(random_count):
        delta = rng.randrange(1, limit)
        if rng.random() < 0.5:
            delta = -delta
        yield Strike("arithmetic", delta=delta, tier="arithmetic")


def correlated_lane_batch(scheme: SwapScheme, base_values: Sequence[int],
                          strike: Strike) -> Tuple[list, list]:
    """A warp's worth of (word, golden) pairs under one correlated event.

    Models the row/column-correlated MBU signature: the *same* strike
    pattern lands in every lane of the batch (adjacent datapath lanes
    share the struck physical row), so a scheme's batched read port must
    flag each lane exactly as it would a lone scalar read.
    """
    words = []
    goldens = []
    for base in base_values:
        words.append(apply_strike(scheme, base, strike))
        goldens.append(base & mask(scheme.data_bits))
    return words, goldens


def shrink_strike(strike: Strike) -> Iterator[Strike]:
    """Candidate one-bit-smaller strikes, for counterexample minimization.

    Yields every strike obtained by clearing a single set bit (or the DP
    flip); the certifier keeps shrinking while the violation persists,
    so recorded counterexamples are locally minimal.
    """
    for bit in range(strike.data_error.bit_length()):
        if strike.data_error >> bit & 1:
            candidate = _replace(strike,
                                 data_error=strike.data_error ^ (1 << bit))
            if candidate.weight:
                yield candidate
    for bit in range(strike.check_error.bit_length()):
        if strike.check_error >> bit & 1:
            candidate = _replace(strike,
                                 check_error=strike.check_error ^ (1 << bit))
            if candidate.weight:
                yield candidate
    if strike.dp_error:
        candidate = _replace(strike, dp_error=0)
        if candidate.weight:
            yield candidate
