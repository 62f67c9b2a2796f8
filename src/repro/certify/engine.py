"""The guarantee certifier: sweeps strike spaces and emits certificates.

For each registered scheme the :class:`Certifier` machine-checks the
claim matrix of :mod:`repro.certify.claims` by exhaustive sweep where
tractable (every 1- and 2-bit strike across every Figure 5 placement,
``fast`` mode) and stratified adversarial search where not (contiguous
bursts, seeded random multi-bit patterns, arithmetic deltas — added in
``full`` mode).  Every strike is evaluated twice — once through the
scalar read port and once through ``read_many`` in warp-sized correlated
batches — so the batched codec layer is certified against the scalar
reference as a first-class claim, not a side effect.

The result is a versioned :class:`Certificate` recording, per claim, the
verdict, the swept space size, and a weight-minimal counterexample when
violated; :func:`write_certificate` serializes it as
``CERTIFICATE_<scheme>.json``, the artifact CI gates on.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.bitutils import mask
from repro.errors import CertificationError, InvalidArgument
from repro.inject.journal import atomic_write_text
from repro.ecc.swap import (READ_STATUS_TO_CODE, ReadResult, RegisterWord,
                            SwapScheme)
from repro.certify.claims import Claim, claim_matrix
from repro.certify.strikes import (Strike, apply_strike, arithmetic_strikes,
                                   burst_strikes,
                                   exhaustive_pipeline_strikes,
                                   exhaustive_storage_strikes,
                                   random_strikes, shrink_strike)

#: schema version of the CERTIFICATE_*.json artifact
CERTIFICATE_SCHEMA_VERSION = 1

#: batch size of the correlated read_many equivalence pass — one warp
WARP_LANES = 32

#: base data words swept under every strike (patterns that exercise
#: all-zero, all-one, and alternating bit neighborhoods; seeded random
#: words are appended per run)
BASE_PATTERNS = (0x0000_0000, 0xFFFF_FFFF, 0xAAAA_AAAA, 0x5555_5555,
                 0xDEAD_BEEF)

#: seeded random base words appended after :data:`BASE_PATTERNS`
RANDOM_BASE_WORDS = 3

#: random multi-bit strikes per stratum in ``full`` mode
RANDOM_STRIKE_COUNT = 64


def certification_registry() -> Dict[str, Callable[[], SwapScheme]]:
    """Every registered scheme the certifier must pass, by campaign name.

    The spellings match :func:`repro.inject.engine.make_scheme` (with
    ``secded-dp-strict`` extending it for the strict check-correction
    policy).  The miscorrecting :class:`~repro.ecc.swap.NaiveSecDedSwap`
    strawman is deliberately *not* registered — it exists to fail, and
    the tamper tests certify that the certifier catches it.
    """
    from repro.ecc import (DetectOnlySwap, LOW_COST_MODULI, ParityCode,
                           ResidueCode, SecDedDpSwap, SecDpSwap, TedCode)
    registry: Dict[str, Callable[[], SwapScheme]] = {
        "parity": lambda: DetectOnlySwap(ParityCode()),
    }
    for modulus in LOW_COST_MODULI:
        registry[f"mod{modulus}"] = \
            (lambda m=modulus: DetectOnlySwap(ResidueCode(m)))
    registry["ted"] = lambda: DetectOnlySwap(TedCode())
    registry["secded-dp"] = lambda: SecDedDpSwap()
    registry["secded-dp-strict"] = \
        lambda: SecDedDpSwap(check_correction="strict")
    registry["sec-dp"] = lambda: SecDpSwap()
    return registry


def make_certified_scheme(name: str) -> SwapScheme:
    """Instantiate a registered scheme by name, or raise."""
    registry = certification_registry()
    if name not in registry:
        raise CertificationError(
            f"unknown scheme {name!r}; registered: {sorted(registry)}")
    return registry[name]()


@dataclass
class ClaimReport:
    """One claim's certification outcome."""

    name: str
    description: str
    verdict: str = "certified"  # or "violated"
    swept: int = 0
    violations: int = 0
    counterexample: Optional[dict] = None

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "swept": self.swept,
                "violations": self.violations,
                "counterexample": self.counterexample,
                "description": self.description}


@dataclass
class Certificate:
    """The versioned certification artifact for one scheme."""

    scheme: str
    code: str
    mode: str
    seed: int
    claims: Dict[str, ClaimReport]
    strikes_swept: int = 0
    base_words: int = 0
    tiers: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violated

    @property
    def violated(self) -> List[str]:
        return [name for name, report in self.claims.items()
                if report.verdict == "violated"]

    def to_dict(self) -> dict:
        return {
            "version": CERTIFICATE_SCHEMA_VERSION,
            "kind": "swapcodes-guarantee-certificate",
            "scheme": self.scheme,
            "code": self.code,
            "mode": self.mode,
            "seed": self.seed,
            "base_words": self.base_words,
            "strikes_swept": self.strikes_swept,
            "tiers": dict(self.tiers),
            "claims": {name: report.to_dict()
                       for name, report in self.claims.items()},
            "violated": self.violated,
            "passed": self.passed,
        }


def validate_artifact_dir(out_dir: str) -> None:
    """Reject artifact-directory arguments before any I/O happens.

    Empty strings and paths that already exist as plain files are
    programming errors a raw ``OSError`` would only surface deep inside
    ``os.makedirs``; fail fast with the typed
    :class:`~repro.errors.InvalidArgument` instead.
    """
    if not isinstance(out_dir, str) or not out_dir:
        raise InvalidArgument(
            f"out_dir must be a non-empty path, got {out_dir!r}")
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise InvalidArgument(
            f"out_dir {out_dir!r} exists and is not a directory",
            context={"path": out_dir})


def write_certificate(certificate: Certificate, out_dir: str = ".") -> str:
    """Serialize ``certificate`` as ``CERTIFICATE_<scheme>.json``.

    The write is crash-safe: the JSON is staged to a temp file and
    published with ``os.replace`` (the :func:`atomic_write_text`
    discipline), so a SIGKILL at any point leaves either the previous
    artifact or the new one under the final name — never a torn JSON.
    """
    validate_artifact_dir(out_dir)
    path = os.path.join(out_dir, f"CERTIFICATE_{certificate.scheme}.json")
    text = json.dumps(certificate.to_dict(), indent=2, sort_keys=False) \
        + "\n"
    try:
        os.makedirs(out_dir, exist_ok=True)
        atomic_write_text(path, text)
    except OSError as exc:
        raise CertificationError(
            f"cannot write certificate to {path!r}: {exc}") from exc
    return path


@dataclass
class _Pending:
    """One strike awaiting the batched-equivalence pass."""

    word: RegisterWord
    base: int
    strike: Strike
    result: ReadResult


class Certifier:
    """Sweeps the strike space of a scheme and certifies its claim matrix.

    ``mode`` is ``"fast"`` (exhaustive 1- and 2-bit sweeps plus the
    arithmetic deltas — the CI gate) or ``"full"`` (adds burst and
    stratified random multi-bit tiers).  Sweeps are deterministic for a
    given ``seed``.
    """

    def __init__(self, mode: str = "fast", seed: int = 0):
        if mode not in ("fast", "full"):
            raise CertificationError(
                f"mode must be 'fast' or 'full', got {mode!r}")
        self.mode = mode
        self.seed = seed

    # -- sweep construction ------------------------------------------------

    def base_words(self, scheme: SwapScheme) -> List[int]:
        """The golden data words every strike is applied over."""
        width_mask = mask(scheme.data_bits)
        words = []
        for pattern in BASE_PATTERNS:
            value = pattern & width_mask
            if value not in words:
                words.append(value)
        rng = random.Random(self.seed ^ 0x5EED)
        while len(words) < len(BASE_PATTERNS) + RANDOM_BASE_WORDS:
            value = rng.getrandbits(scheme.data_bits) & width_mask
            if value not in words:
                words.append(value)
        return words

    def strikes(self, scheme: SwapScheme) -> Iterator[Strike]:
        """The swept strike space, exhaustive tier first (weight order)."""
        yield from exhaustive_pipeline_strikes(scheme, max_weight=2)
        yield from exhaustive_storage_strikes(scheme, max_weight=2)
        if hasattr(scheme.code, "modulus"):
            rng = random.Random(self.seed ^ 0xA417)
            yield from arithmetic_strikes(scheme, rng)
        if self.mode == "full":
            yield from burst_strikes(scheme)
            rng = random.Random(self.seed ^ 0xF011)
            yield from random_strikes(scheme, rng, RANDOM_STRIKE_COUNT)

    # -- certification -----------------------------------------------------

    def certify(self, scheme: SwapScheme,
                name: Optional[str] = None) -> Certificate:
        """Sweep every strike over every base word and certify each claim."""
        claims = claim_matrix(scheme)
        reports = {claim_name: ClaimReport(claim_name, claim.description)
                   for claim_name, claim in claims.items()}
        batch_report = reports["batched-read-equivalence"]
        certificate = Certificate(
            scheme=name or scheme.name, code=scheme.code.name,
            mode=self.mode, seed=self.seed, claims=reports)
        bases = self.base_words(scheme)
        certificate.base_words = len(bases)
        per_strike = [(claim_name, claim)
                      for claim_name, claim in claims.items()
                      if claim_name != "batched-read-equivalence"]
        pending: List[_Pending] = []
        for strike in self.strikes(scheme):
            covering = [(claim_name, claim) for claim_name, claim
                        in per_strike if claim.covers(strike)]
            certificate.tiers[strike.tier] = \
                certificate.tiers.get(strike.tier, 0) + len(bases)
            for base in bases:
                certificate.strikes_swept += 1
                word = apply_strike(scheme, base, strike)
                result = scheme.read(word)
                for claim_name, claim in covering:
                    report = reports[claim_name]
                    report.swept += 1
                    violation = claim.check(scheme, strike, base, word,
                                            result)
                    if violation is None:
                        continue
                    report.violations += 1
                    report.verdict = "violated"
                    if report.counterexample is None:
                        report.counterexample = self._counterexample(
                            scheme, claim, strike, base, violation)
                pending.append(_Pending(word, base, strike, result))
                if len(pending) >= WARP_LANES:
                    self._check_batch(scheme, pending, batch_report)
                    pending = []
        if pending:
            self._check_batch(scheme, pending, batch_report)
        return certificate

    # -- batched equivalence ----------------------------------------------

    def _check_batch(self, scheme: SwapScheme, pending: List[_Pending],
                     report: ClaimReport) -> None:
        """read_many over a warp-sized batch must match the scalar reads."""
        data = np.array([entry.word.data for entry in pending],
                        dtype=np.uint64)
        check = np.array([entry.word.check for entry in pending],
                         dtype=np.uint64)
        dp = np.array([entry.word.dp for entry in pending],
                      dtype=np.uint64) if scheme.uses_data_parity else None
        batch = scheme.read_many(data, check, dp)
        want_status = np.array(
            [READ_STATUS_TO_CODE[entry.result.status] for entry in pending],
            dtype=np.uint8)
        want_data = np.array([entry.result.data for entry in pending],
                             dtype=np.uint64)
        report.swept += len(pending)
        mismatched = (batch.status != want_status) | (batch.data != want_data)
        if not mismatched.any():
            return
        report.verdict = "violated"
        report.violations += int(mismatched.sum())
        if report.counterexample is None:
            index = int(np.argmax(mismatched))
            entry = pending[index]
            report.counterexample = {
                "strike": entry.strike.describe(),
                "base": f"0x{entry.base:x}",
                "stored_data": f"0x{entry.word.data:x}",
                "stored_check": f"0x{entry.word.check:x}",
                "scalar_status": entry.result.status.value,
                "scalar_data": f"0x{entry.result.data:x}",
                "batched_status": int(batch.status[index]),
                "batched_data": f"0x{int(batch.data[index]):x}",
                "violation": "read_many disagrees with the scalar read",
                "weight": entry.strike.weight,
            }

    # -- counterexample minimization ---------------------------------------

    def _counterexample(self, scheme: SwapScheme, claim: Claim,
                        strike: Strike, base: int, violation: str) -> dict:
        """Record a violation, greedily shrunk to a locally minimal strike.

        Strikes are already swept in ascending weight, so the first
        violation is weight-minimal within its tier; the greedy pass
        additionally drops any bit whose removal preserves the violation
        (relevant for burst/random tiers, where wide patterns may hide a
        smaller core).
        """
        minimal, description = self._shrink(scheme, claim, strike, base,
                                            violation)
        word = apply_strike(scheme, base, minimal)
        result = scheme.read(word)
        return {
            "strike": minimal.describe(),
            "base": f"0x{base:x}",
            "stored_data": f"0x{word.data:x}",
            "stored_check": f"0x{word.check:x}",
            "stored_dp": word.dp,
            "status": result.status.value,
            "returned_data": f"0x{result.data:x}",
            "golden_data": f"0x{base:x}",
            "violation": description,
            "weight": minimal.weight,
        }

    def _shrink(self, scheme: SwapScheme, claim: Claim, strike: Strike,
                base: int, violation: str):
        """Greedy bit-removal to a fixpoint; the violation must persist."""
        current, description = strike, violation
        shrinking = True
        while shrinking:
            shrinking = False
            for candidate in shrink_strike(current):
                if not claim.covers(candidate):
                    continue
                word = apply_strike(scheme, base, candidate)
                result = scheme.read(word)
                smaller = claim.check(scheme, candidate, base, word, result)
                if smaller is not None:
                    current, description = candidate, smaller
                    shrinking = True
                    break
        return current, description


def certify_scheme(name: str, mode: str = "fast",
                   seed: int = 0) -> Certificate:
    """Certify one registered scheme by name."""
    return Certifier(mode=mode, seed=seed).certify(
        make_certified_scheme(name), name=name)


def certify_all(mode: str = "fast", seed: int = 0) -> Dict[str, Certificate]:
    """Certify every registered scheme, in registry order."""
    return {name: certify_scheme(name, mode=mode, seed=seed)
            for name in certification_registry()}
