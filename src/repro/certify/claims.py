"""The machine-checked claim matrix for SwapCodes schemes.

Each :class:`Claim` binds one of the paper's guarantees to a predicate
over (strike, stored word, read verdict).  A claim *covers* a subset of
the strike space (its ``covers`` hook) and is *violated* when its
``check`` hook returns a description; the certifier sweeps every strike
once and routes it to every applicable claim, so a certificate's swept
counts are per-claim, not per-strike.  A claim's description, swept
count and verdict all land in the certificate, and tier-1 pins every
registered scheme's certificate byte for byte
(``TestPinnedCertificates``).

The matrix (``claim`` × ``scheme family``):

====================================  =======  =======  ===  ======  ======
claim                                 parity   residue  ted  sd-dp   sec-dp
====================================  =======  =======  ===  ======  ======
detects-all-single-pipeline             X        X       X     X       X
never-miscorrects-pipeline              X        X       X     X       X
detects-all-single-storage              X        X       X     -       -
corrects-all-single-storage             -        -       -     X       X
ded-on-doubles                          -        -       X     X       -
residue-arithmetic-coverage             -        X       -     -       -
batched-read-equivalence                X        X       X     X       X
====================================  =======  =======  ===  ======  ======

(``sd-dp`` covers both check-correction policies; under ``strict`` the
storage-correction claim is scoped to the data and DP segments, since
flagging benign check-bit storage flips as DUEs is that policy's
deliberate availability trade.)

Verdict vocabulary: a strike is *detected* when the read DUEs or returns
the golden value; an *active miscorrection* is a CORRECTED status whose
returned data matches neither the golden value nor the stored data — the
decoder invented a third value, the failure mode the DP bit exists to
close.  Aliasing patterns that pass the stored (wrong) data through
unchanged are coverage gaps, not miscorrections, and are bounded by the
detection claims instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.ecc.hsiao import HsiaoSecDed, TedCode
from repro.ecc.residue import ResidueCode
from repro.ecc.swap import ReadResult, ReadStatus, RegisterWord, SwapScheme
from repro.certify.strikes import PIPELINE_PLACEMENTS, Strike


@dataclass(frozen=True)
class Claim:
    """One certifiable guarantee: coverage predicate + violation check.

    ``covers(strike)`` selects the strikes this claim constrains;
    ``check(scheme, strike, base, word, result)`` returns ``None`` when
    the verdict honours the claim and a human-readable violation
    description otherwise.
    """

    name: str
    description: str
    covers: Callable[[Strike], bool]
    check: Callable[[SwapScheme, Strike, int, RegisterWord, ReadResult],
                    Optional[str]]


def _is_pipeline(strike: Strike) -> bool:
    return strike.placement in PIPELINE_PLACEMENTS


def _detects(base: int, result: ReadResult) -> bool:
    """Detected: the read DUEd, or the returned data is the golden value."""
    return result.is_due or result.data == base


def _check_single_pipeline(scheme, strike, base, word, result):
    if not _detects(base, result):
        return (f"single pipeline error escaped: status "
                f"{result.status.value}, returned 0x{result.data:x} != "
                f"golden 0x{base:x}")
    return None


def _check_never_miscorrects(scheme, strike, base, word, result):
    if result.status is ReadStatus.CORRECTED \
            and result.data != base and result.data != word.data:
        return (f"active miscorrection: returned 0x{result.data:x} is "
                f"neither golden 0x{base:x} nor stored 0x{word.data:x}")
    return None


def _check_single_storage_detect(scheme, strike, base, word, result):
    if not _detects(base, result):
        return (f"single storage error escaped: status "
                f"{result.status.value}, returned 0x{result.data:x} != "
                f"golden 0x{base:x}")
    return None


def _check_single_storage_correct(scheme, strike, base, word, result):
    if result.is_due:
        return "single storage error raised a DUE instead of correcting"
    if result.data != base:
        return (f"single storage error not repaired: returned "
                f"0x{result.data:x} != golden 0x{base:x}")
    return None


def _check_ded_on_doubles(scheme, strike, base, word, result):
    if not _detects(base, result):
        return (f"double storage error escaped: status "
                f"{result.status.value}, returned 0x{result.data:x} != "
                f"golden 0x{base:x}")
    return None


def _check_residue_arithmetic(scheme, strike, base, word, result):
    modulus = scheme.code.modulus
    expected_due = (word.data % modulus) != (base % modulus)
    if result.is_due != expected_due:
        want = "DUE" if expected_due else "accept"
        got = "DUE" if result.is_due else "accept"
        return (f"arithmetic delta {strike.delta}: residue predicate says "
                f"{want} (stored 0x{word.data:x} mod {modulus} vs golden "
                f"0x{base:x} mod {modulus}) but the read said {got}")
    return None


def _storage_weight_one(scheme: SwapScheme,
                        strict: bool) -> Callable[[Strike], bool]:
    """Coverage for the storage-correction claim, scoped per policy."""
    def covers(strike: Strike) -> bool:
        if strike.placement != "storage" or strike.weight != 1:
            return False
        if strict and strike.check_error:
            # Strict check-correction DUEs benign check-bit storage flips
            # by design; the correction guarantee is scoped to the data
            # and DP segments.
            return False
        return True
    return covers


def claim_matrix(scheme: SwapScheme) -> Dict[str, Claim]:
    """The ordered claims the certifier must check for ``scheme``.

    ``batched-read-equivalence`` is part of every scheme's matrix but is
    evaluated by the certifier's chunked batch pass rather than through
    a per-strike ``check`` hook, so it carries a no-op check here.
    """
    corrects = scheme.uses_data_parity
    strict = getattr(scheme, "check_correction", "accept") == "strict"
    hsiao_family = isinstance(scheme.code, (HsiaoSecDed, TedCode))
    claims: Dict[str, Claim] = {}
    claims["detects-all-single-pipeline"] = Claim(
        "detects-all-single-pipeline",
        "every single-bit pipeline error (original datapath, shadow "
        "datapath, shadow bus, DP generator) raises a DUE or leaves the "
        "returned data golden",
        lambda strike: _is_pipeline(strike) and strike.weight == 1,
        _check_single_pipeline)
    claims["never-miscorrects-pipeline"] = Claim(
        "never-miscorrects-pipeline",
        "no pipeline error of any swept multiplicity is ever actively "
        "miscorrected (a CORRECTED verdict returning a value that is "
        "neither golden nor the stored data)",
        _is_pipeline,
        _check_never_miscorrects)
    if corrects:
        claims["corrects-all-single-storage"] = Claim(
            "corrects-all-single-storage",
            "every single-bit storage upset"
            + (" of the data or DP segment" if strict else "")
            + " is repaired in place: no DUE, returned data golden",
            _storage_weight_one(scheme, strict),
            _check_single_storage_correct)
    else:
        claims["detects-all-single-storage"] = Claim(
            "detects-all-single-storage",
            "every single-bit storage upset raises a DUE or leaves the "
            "returned data golden (detect-only schemes never correct)",
            lambda strike: strike.placement == "storage"
            and strike.weight == 1,
            _check_single_storage_detect)
    if hsiao_family:
        claims["ded-on-doubles"] = Claim(
            "ded-on-doubles",
            "every double-bit storage upset across the stored word (data, "
            "check, DP) raises a DUE or returns golden data — the "
            "distance-4 double-error-detection guarantee",
            lambda strike: strike.placement == "storage"
            and strike.weight == 2,
            _check_ded_on_doubles)
    if isinstance(scheme.code, ResidueCode):
        claims["residue-arithmetic-coverage"] = Claim(
            "residue-arithmetic-coverage",
            "the read verdict on arithmetic value errors matches the "
            "residue predicate exactly: DUE iff the stored value's "
            "residue differs from the golden residue (all non-wrapping "
            "±2^k errors are therefore detected, since no power of two "
            "is a multiple of 2^a - 1)",
            lambda strike: strike.placement == "arithmetic",
            _check_residue_arithmetic)
    claims["batched-read-equivalence"] = Claim(
        "batched-read-equivalence",
        "the vectorized read port (read_many) agrees with the scalar "
        "read bit-for-bit on every swept strike, evaluated in warp-sized "
        "correlated batches",
        lambda strike: True,
        lambda scheme, strike, base, word, result: None)
    return claims
