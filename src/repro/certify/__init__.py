"""Machine-checked guarantee certification for every code/scheme pair.

The paper's central results are *guarantees*, not averages — 100% single
pipeline error detection, storage correction without pipeline
miscorrection — and sampling campaigns exercise them without certifying
them.  This package sweeps each registered scheme's strike space
(exhaustively for 1- and 2-bit strikes across every Figure 5 placement,
adversarially for bursts and random multi-bit patterns) and emits a
versioned ``CERTIFICATE_<scheme>.json`` recording each claim's verdict,
swept space, and minimal counterexample if violated::

    from repro.certify import certify_scheme, write_certificate

    certificate = certify_scheme("secded-dp", mode="fast")
    assert certificate.passed
    write_certificate(certificate, out_dir="artifacts")

Every call sweeps from scratch and nothing is cached: all 12 registered
schemes certify in a few seconds, so there is nothing to resume.  A
certificate's verdicts, swept spaces and counterexamples live in its
``CERTIFICATE_<scheme>.json`` artifact.

See :mod:`repro.certify.claims` for the claim matrix,
:mod:`repro.certify.strikes` for the strike spaces, and
:mod:`repro.certify.tamper` for the deliberately broken schemes that
prove the certifier can fail.
"""

from repro.certify.claims import Claim, claim_matrix
from repro.certify.engine import (CERTIFICATE_SCHEMA_VERSION, Certificate,
                                  Certifier, ClaimReport,
                                  certification_registry, certify_all,
                                  certify_scheme, make_certified_scheme,
                                  validate_artifact_dir, write_certificate)
from repro.certify.strikes import (PIPELINE_PLACEMENTS, PLACEMENTS, Strike,
                                   apply_strike, arithmetic_strikes,
                                   burst_strikes, correlated_lane_batch,
                                   exhaustive_pipeline_strikes,
                                   exhaustive_storage_strikes, random_strikes)
from repro.certify.tamper import tampered_secded_dp

__all__ = [
    "CERTIFICATE_SCHEMA_VERSION", "Certificate", "Certifier", "Claim",
    "ClaimReport", "PIPELINE_PLACEMENTS", "PLACEMENTS", "Strike",
    "apply_strike", "arithmetic_strikes", "burst_strikes",
    "certification_registry", "certify_all", "certify_scheme",
    "claim_matrix", "correlated_lane_batch",
    "exhaustive_pipeline_strikes", "exhaustive_storage_strikes",
    "make_certified_scheme", "random_strikes", "tampered_secded_dp",
    "validate_artifact_dir", "write_certificate",
]
