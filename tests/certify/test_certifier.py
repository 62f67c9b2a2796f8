"""Acceptance tests for the guarantee certifier.

Two directions: every *registered* scheme must earn a clean fast-mode
certificate (the paper's claim matrix holds), and deliberately broken
schemes — tampered parity columns, the naive no-DP strawman — must earn
FAILED certificates carrying weight-minimal counterexamples (the
certifier actually checks something).
"""

import hashlib
import json

import pytest

from repro.certify import (CERTIFICATE_SCHEMA_VERSION, Certifier, Strike,
                           certification_registry, certify_all,
                           certify_scheme, claim_matrix,
                           make_certified_scheme, tampered_secded_dp,
                           write_certificate)
from repro.ecc import NaiveSecDedSwap, SecDedDpSwap
from repro.errors import CertificationError, InvalidArgument

#: sha256 of every registered scheme's fast seed-0 certificate, as
#: sorted-keys JSON keyed by scheme name
PINNED_FAST_SHA256 = \
    "2edde100f9374510b9547bd019c2198b183214ea8bba599132dc73f35f0cd5e8"


@pytest.fixture(scope="module")
def fast_certificates():
    return certify_all(mode="fast", seed=0)


class TestRegisteredSchemesPass:
    def test_every_registered_scheme_certifies(self, fast_certificates):
        assert set(fast_certificates) == set(certification_registry())
        for name, certificate in fast_certificates.items():
            assert certificate.passed, (name, certificate.violated)

    def test_sweep_is_nontrivial(self, fast_certificates):
        for name, certificate in fast_certificates.items():
            assert certificate.strikes_swept > 1000, name
            assert certificate.tiers.get("exhaustive", 0) > 0, name
            for claim_name, report in certificate.claims.items():
                assert report.swept > 0, (name, claim_name)

    def test_claim_matrix_matches_scheme_family(self, fast_certificates):
        assert "corrects-all-single-storage" in \
            fast_certificates["secded-dp"].claims
        assert "ded-on-doubles" in fast_certificates["secded-dp"].claims
        assert "detects-all-single-storage" in \
            fast_certificates["parity"].claims
        assert "residue-arithmetic-coverage" in \
            fast_certificates["mod7"].claims
        assert "ded-on-doubles" not in fast_certificates["sec-dp"].claims
        for certificate in fast_certificates.values():
            assert "never-miscorrects-pipeline" in certificate.claims
            assert "batched-read-equivalence" in certificate.claims

    def test_full_mode_adds_adversarial_tiers(self):
        certificate = certify_scheme("secded-dp", mode="full", seed=1)
        assert certificate.passed
        assert certificate.tiers.get("burst", 0) > 0
        assert certificate.tiers.get("random", 0) > 0

    def test_certification_is_seed_deterministic(self):
        first = certify_scheme("mod7", mode="full", seed=9)
        second = certify_scheme("mod7", mode="full", seed=9)
        assert first.to_dict() == second.to_dict()


class TestPinnedCertificates:
    """Every certificate's bytes, pinned: a refactor of the certifier,
    the claim matrix or the strike enumerators must not move them."""

    def test_fast_certificates_match_pinned_digest(self, fast_certificates):
        payload = json.dumps({name: certificate.to_dict() for name,
                              certificate in fast_certificates.items()},
                             sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert len(fast_certificates) == 12
        assert digest == PINNED_FAST_SHA256


class TestBrokenSchemesFail:
    def test_zero_column_tamper_breaks_single_error_detection(self):
        certificate = Certifier(mode="fast").certify(
            tampered_secded_dp("zero-column"))
        assert not certificate.passed
        assert "detects-all-single-pipeline" in certificate.violated
        counterexample = \
            certificate.claims["detects-all-single-pipeline"].counterexample
        assert counterexample["weight"] == 1
        # the zeroed column is data bit 11: the minimal strike names it
        assert counterexample["strike"]["data_error"] == "0x800"

    def test_duplicate_column_tamper_breaks_storage_correction(self):
        certificate = Certifier(mode="fast").certify(
            tampered_secded_dp("duplicate-column"))
        assert not certificate.passed
        assert "corrects-all-single-storage" in certificate.violated
        counterexample = \
            certificate.claims["corrects-all-single-storage"].counterexample
        assert counterexample["weight"] == 1

    def test_naive_strawman_actively_miscorrects(self):
        certificate = Certifier(mode="fast").certify(NaiveSecDedSwap(),
                                                     name="naive-secded")
        assert "never-miscorrects-pipeline" in certificate.violated
        counterexample = \
            certificate.claims["never-miscorrects-pipeline"].counterexample
        assert counterexample["status"] == "corrected"
        assert counterexample["returned_data"] != \
            counterexample["golden_data"]

    def test_counterexamples_are_minimal_after_shrinking(self):
        certificate = Certifier(mode="full").certify(
            tampered_secded_dp("zero-column"))
        report = certificate.claims["detects-all-single-pipeline"]
        assert report.counterexample["weight"] == 1

    def test_tamper_factory_validates_inputs(self):
        with pytest.raises(CertificationError):
            tampered_secded_dp("missing-row")
        with pytest.raises(CertificationError):
            tampered_secded_dp(position=77)


class TestCertificateArtifact:
    def test_write_certificate_round_trips(self, tmp_path):
        certificate = certify_scheme("parity", mode="fast")
        path = write_certificate(certificate, str(tmp_path))
        assert path.endswith("CERTIFICATE_parity.json")
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["version"] == CERTIFICATE_SCHEMA_VERSION
        assert loaded["kind"] == "swapcodes-guarantee-certificate"
        assert loaded["scheme"] == "parity"
        assert loaded["passed"] is True
        assert loaded["violated"] == []
        assert set(loaded["claims"]) == set(certificate.claims)
        for report in loaded["claims"].values():
            assert report["verdict"] == "certified"
            assert report["counterexample"] is None

    def test_failed_certificate_serializes_counterexample(self, tmp_path):
        certificate = Certifier(mode="fast").certify(
            tampered_secded_dp("zero-column"))
        path = write_certificate(certificate, str(tmp_path))
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["passed"] is False
        report = loaded["claims"]["detects-all-single-pipeline"]
        assert report["verdict"] == "violated"
        assert report["counterexample"]["strike"]["placement"] in (
            "pipeline-original", "pipeline-shadow-value")

    def test_write_certificate_rejects_unwritable_path(self):
        certificate = certify_scheme("parity", mode="fast")
        with pytest.raises(CertificationError):
            write_certificate(certificate, "/proc/no-such-dir")


class TestRegistryAndConfig:
    def test_registry_spans_every_figure11_family(self):
        registry = certification_registry()
        for name in ("parity", "mod3", "mod255", "ted", "secded-dp",
                     "secded-dp-strict", "sec-dp"):
            assert name in registry
        assert "naive" not in " ".join(registry)

    def test_unknown_scheme_raises(self):
        with pytest.raises(CertificationError):
            make_certified_scheme("hamming-mystery")

    def test_bad_certifier_config_raises(self):
        with pytest.raises(CertificationError):
            Certifier(mode="extreme")

    def test_claim_matrix_strict_policy_scopes_storage_claim(self):
        strict = claim_matrix(SecDedDpSwap(check_correction="strict"))
        accept = claim_matrix(SecDedDpSwap())
        strike_on_check = Strike("storage", check_error=0b1)
        assert accept["corrects-all-single-storage"].covers(strike_on_check)
        assert not strict["corrects-all-single-storage"].covers(
            strike_on_check)


class TestArtifactDirValidation:
    def test_empty_out_dir_rejected(self):
        certificate = certify_scheme("parity", mode="fast")
        with pytest.raises(InvalidArgument):
            write_certificate(certificate, "")

    def test_non_string_out_dir_rejected(self):
        certificate = certify_scheme("parity", mode="fast")
        with pytest.raises(InvalidArgument):
            write_certificate(certificate, None)

    def test_out_dir_existing_as_file_rejected(self, tmp_path):
        victim = tmp_path / "artifact"
        victim.write_text("a file, not a directory")
        certificate = certify_scheme("parity", mode="fast")
        with pytest.raises(InvalidArgument) as info:
            write_certificate(certificate, str(victim))
        assert info.value.context["path"] == str(victim)


class TestAtomicCertificateWrite:
    def test_write_leaves_no_staging_files(self, tmp_path):
        certificate = certify_scheme("parity", mode="fast")
        write_certificate(certificate, str(tmp_path))
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["CERTIFICATE_parity.json"]

    def test_overwrite_is_old_or_new_never_torn(self, tmp_path):
        # rewrite the artifact while re-reading it: every read parses
        certificate = certify_scheme("parity", mode="fast")
        path = write_certificate(certificate, str(tmp_path))
        for _ in range(40):
            write_certificate(certificate, str(tmp_path))
            with open(path, encoding="utf-8") as handle:
                loaded = json.load(handle)
            assert loaded["scheme"] == "parity"

    def test_kill_during_write_never_leaves_torn_artifact(self, tmp_path):
        """SIGKILL a writer loop mid-``write_certificate``; the artifact
        under the final name must always be absent or fully valid."""
        import os
        import signal
        import subprocess
        import sys
        import time

        out_dir = str(tmp_path / "artifacts")
        script = (
            "from repro.certify import certify_scheme, write_certificate\n"
            "import sys\n"
            "certificate = certify_scheme('parity', mode='fast')\n"
            "print('WRITING', flush=True)\n"
            "while True:\n"
            f"    write_certificate(certificate, {out_dir!r})\n")
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        for attempt in range(3):
            victim = subprocess.Popen(
                [sys.executable, "-c", script], cwd=repo_root, env=env,
                stdout=subprocess.PIPE, text=True)
            assert "WRITING" in victim.stdout.readline()
            time.sleep(0.05 + attempt * 0.03)
            victim.send_signal(signal.SIGKILL)
            victim.wait(30)
            final = os.path.join(out_dir, "CERTIFICATE_parity.json")
            if os.path.exists(final):
                with open(final, encoding="utf-8") as handle:
                    loaded = json.load(handle)
                assert loaded["scheme"] == "parity"
                assert loaded["passed"] is True
