"""Deterministic repro bundles: capture, verify, replay.

The acceptance bar for :mod:`repro.bundle`: a failure captured as a
bundle must replay to the *identical* error code and outcome
fingerprint from the bundle contents alone — in-process, and in a
fresh interpreter that has never seen the original campaign.  These
tests cover the capture layer (content hashing, idempotency, tamper
refusal), each replayable trial kind, and the two headline scenarios:
a :class:`~repro.errors.ContainmentViolation` from a tampered compiler
pass and a FAILED certificate from a sabotaged scheme.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.bundle import (BUNDLE_SCHEMA_VERSION, DIVERGED, REPRODUCED,
                          STALE_SCHEMA, ReproBundle, capture_bundle,
                          merge_outcome, replay)
from repro.errors import (BundleError, ContainmentViolation, FabricError,
                          MergeConflict, ReproError)
from repro.inject.journal import Journal

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPLAY_CLI = os.path.join(REPO_ROOT, "examples", "replay_bundle.py")


def _capture_simple(out_dir, trial=None, **kwargs):
    error = ReproError("boom", context={"unit": "u0"})
    return capture_bundle(error, capture_point="test",
                          out_dir=str(out_dir), trial=trial, **kwargs)


class TestCaptureAndLoad:
    def test_manifest_records_identity_and_hash(self, tmp_path):
        path = _capture_simple(tmp_path, seed=7)
        bundle = ReproBundle.load(path)
        assert bundle.schema_version == BUNDLE_SCHEMA_VERSION
        assert bundle.code == "repro.error"
        assert bundle.severity == "fatal"
        assert bundle.capture_point == "test"
        assert bundle.manifest["seed"] == 7
        assert bundle.fingerprint
        assert os.path.basename(path).startswith("bundle-repro-error-")

    def test_capture_is_idempotent(self, tmp_path):
        first = _capture_simple(tmp_path)
        second = _capture_simple(tmp_path)
        assert first == second
        assert len(os.listdir(tmp_path)) == 1

    def test_tampered_bundle_refuses_to_load(self, tmp_path):
        path = _capture_simple(
            tmp_path, fault_plan={"bit": 4, "lane": 0})
        plan_file = os.path.join(path, "fault_plan.json")
        with open(plan_file, "w", encoding="utf-8") as handle:
            handle.write('{"bit":5,"lane":0}')
        with pytest.raises(BundleError, match="content-hash"):
            ReproBundle.load(path)

    def test_tarball_round_trips(self, tmp_path):
        path = _capture_simple(tmp_path, fault_plan={"bit": 4})
        tarball = ReproBundle.load(path).to_tarball(
            str(tmp_path / "b.tar.gz"))
        clone = ReproBundle.load(tarball)
        assert clone.manifest == ReproBundle.load(path).manifest

    def test_forensic_bundle_cannot_replay(self, tmp_path):
        path = _capture_simple(tmp_path, trial=None)
        with pytest.raises(BundleError, match="forensic-only"):
            replay(path)

    def test_unknown_trial_kind_is_stale(self, tmp_path):
        path = _capture_simple(tmp_path, trial={"kind": "quantum"})
        result = replay(path)
        assert result.verdict == STALE_SCHEMA
        assert "quantum" in result.detail

    def test_schema_bump_is_stale_not_an_error(self, tmp_path,
                                               monkeypatch):
        path = _capture_simple(tmp_path, trial={"kind": "merge"})
        # the package re-exports replay() under the module's name, so
        # resolve the module object through sys.modules
        monkeypatch.setattr(sys.modules["repro.bundle.replay"],
                            "BUNDLE_SCHEMA_VERSION",
                            BUNDLE_SCHEMA_VERSION + 1)
        result = replay(path)
        assert result.verdict == STALE_SCHEMA
        assert not result.reproduced


def _lease_journal(path, shard, token, successes):
    journal = Journal(str(path), header={
        "role": "shard", "shard": shard, "token": token,
        "shard_count": 1})
    journal.append({"type": "unit_started", "unit": "u0", "kind": "toy",
                    "params": {"seed": 7}})
    journal.append({"type": "batch", "unit": "u0", "index": 0,
                    "trials": 4, "successes": successes,
                    "counts": {"detected": successes,
                               "masked": 4 - successes}})
    journal.close()


class TestMergeReplay:
    def _conflict_bundle(self, tmp_path):
        from repro.inject.merge import merge_shard_journals

        a = tmp_path / "shard-000.lease-001.jsonl"
        b = tmp_path / "shard-000.lease-002.jsonl"
        _lease_journal(a, "shard-000", 1, successes=1)
        _lease_journal(b, "shard-000", 2, successes=3)
        with pytest.raises(MergeConflict) as info:
            merge_shard_journals([str(a), str(b)])
        out = tmp_path / "bundles"
        return capture_bundle(
            info.value, capture_point="fabric.merge", out_dir=str(out),
            trial={"kind": "merge"}, outcome=merge_outcome(info.value),
            journal_files={os.path.basename(str(path)): str(path)
                           for path in (a, b)})

    def test_merge_conflict_reproduces(self, tmp_path):
        result = replay(self._conflict_bundle(tmp_path))
        assert result.verdict == REPRODUCED
        assert result.actual_code == "journal.merge_conflict"

    def test_wrong_expected_outcome_diverges(self, tmp_path):
        from repro.inject.merge import merge_shard_journals

        a = tmp_path / "shard-000.lease-001.jsonl"
        b = tmp_path / "shard-000.lease-002.jsonl"
        _lease_journal(a, "shard-000", 1, successes=1)
        _lease_journal(b, "shard-000", 2, successes=3)
        with pytest.raises(MergeConflict) as info:
            merge_shard_journals([str(a), str(b)])
        # claim the merge failed with a *different* code than it will
        path = capture_bundle(
            info.value, capture_point="fabric.merge",
            out_dir=str(tmp_path / "bundles"), trial={"kind": "merge"},
            outcome={"code": "inject.fabric", "message": None,
                     "context": {}},
            journal_files={os.path.basename(str(p)): str(p)
                           for p in (a, b)})
        result = replay(path)
        assert result.verdict == DIVERGED


class TestFabricLeaseBundle:
    def test_sigkilled_lease_exports_verifiable_bundle(self, tmp_path):
        """SIGKILL a holder mid-lease with stealing off: the fabric's
        terminal FabricError exports a journal-verify bundle whose
        replay re-digests the bundled lease journals."""
        from tests.inject.fabric_driver import toy_config, toy_units
        from tests.inject.test_fabric import (_leased_holder_process,
                                              _run_in_thread)
        from repro.inject.fabric import CampaignFabric

        bundle_dir = str(tmp_path / "bundles")
        fabric = CampaignFabric(
            toy_units(4, delay=0.1), str(tmp_path / "fab"),
            toy_config(shards=2, lease_ttl_s=1.0, steal=False,
                       max_batches=4, bundle_dir=bundle_dir))
        thread, result = _run_in_thread(fabric)
        __, process = _leased_holder_process(fabric)
        time.sleep(0.3)  # let the victim journal something durable
        os.kill(process.pid, signal.SIGKILL)
        thread.join(60)
        assert isinstance(result.get("error"), FabricError)

        bundles = sorted(os.listdir(bundle_dir))
        assert len(bundles) == 1
        path = os.path.join(bundle_dir, bundles[0])
        bundle = ReproBundle.load(path)
        assert bundle.capture_point == "fabric.lease"
        assert bundle.code == "inject.fabric"
        assert bundle.journal_files()
        replayed = replay(path)
        assert replayed.verdict == REPRODUCED, replayed.detail


class TestCertifyBundle:
    def test_passed_certificate_exports_nothing(self, tmp_path):
        from repro.certify import (capture_certificate_bundle,
                                   certify_scheme)

        certificate = certify_scheme("parity", mode="fast")
        assert certificate.passed
        assert capture_certificate_bundle(certificate,
                                          str(tmp_path)) is None
        assert not os.listdir(tmp_path)

    def test_failed_certificate_reproduces(self, tmp_path):
        from repro.certify import (Certifier, capture_certificate_bundle,
                                   tampered_secded_dp)

        tamper = {"factory": "secded-dp", "kind": "zero-column",
                  "position": 11}
        scheme = tampered_secded_dp("zero-column", 11)
        certificate = Certifier(mode="fast", seed=0).certify(
            scheme, name="secded-dp")
        assert not certificate.passed
        path = capture_certificate_bundle(certificate, str(tmp_path),
                                          tamper=tamper)
        bundle = ReproBundle.load(path)
        assert bundle.code == "certify.claim_violated"
        assert bundle.severity == "fatal"
        # the counterexample travels in the bundled certificate sidecar
        sidecar = bundle.read_json("scheme.json")
        assert any(claim["verdict"] == "violated"
                   and claim.get("counterexample")
                   for claim in sidecar["claims"].values())
        result = replay(path)
        assert result.verdict == REPRODUCED, result.detail
        assert result.actual_code == "certify.claim_violated"


@pytest.fixture(scope="module")
def violation_bundle(tmp_path_factory):
    """One ContainmentViolation bundle from a tampered compiler pass,
    exported by the engine's terminal-failure hook."""
    from repro.inject.engine import CampaignEngine, EngineConfig, WorkUnit

    bundle_dir = str(tmp_path_factory.mktemp("bundles"))
    config = EngineConfig(batch_size=4, max_batches=6,
                          bundle_dir=bundle_dir)
    unit = WorkUnit(unit_id="ladder-cv", kind="gpu-recovery", params={
        "workload": "snap", "scale": 0.1, "build_seed": 3,
        "tamper": {"pass": "swdup-late-check"}, "mode": "swdup"})
    report = CampaignEngine(config).run([unit])
    assert report.units["ladder-cv"].status == "crashed"
    bundles = os.listdir(bundle_dir)
    assert len(bundles) == 1
    return os.path.join(bundle_dir, bundles[0])


class TestContainmentViolationBundle:
    def test_manifest_freezes_the_trial(self, violation_bundle):
        bundle = ReproBundle.load(violation_bundle)
        assert bundle.code == "gpu.containment_violation"
        assert bundle.severity == "fatal"
        assert bundle.capture_point == "engine.crashed"
        trial = bundle.trial
        assert trial["kind"] == "ladder"
        assert trial["workload"] == "snap"
        assert trial["tamper"] == {"pass": "swdup-late-check"}
        # the violation context carries the exact trial coordinates
        context = (bundle.manifest["error"] or {})["context"]
        assert {"seed", "batch", "trial", "plan"} <= set(context)

    def test_in_process_replay_reproduces(self, violation_bundle):
        result = replay(violation_bundle)
        assert result.verdict == REPRODUCED, result.detail
        assert result.actual_code == "gpu.containment_violation"
        assert result.cross_check == "ok"

    def test_fresh_process_replay_from_copied_bundle(
            self, violation_bundle, tmp_path):
        """The acceptance scenario: copy the bundle to a different
        directory and replay it in a fresh interpreter that has only
        the bundle contents and the library."""
        copied = str(tmp_path / os.path.basename(violation_bundle))
        shutil.copytree(violation_bundle, copied)
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, REPLAY_CLI, copied, "--json"],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr or proc.stdout
        verdicts = [json.loads(line)
                    for line in proc.stdout.splitlines() if line]
        assert [v["verdict"] for v in verdicts] == [REPRODUCED]
        expected = ReproBundle.load(violation_bundle).fingerprint
        assert verdicts[0]["actual_fingerprint"] == expected


class TestReplayCli:
    def test_directory_scan_and_exit_status(self, tmp_path):
        # a directory holding one reproducible merge bundle replays
        # wholesale with exit 0; an empty scan is an error
        a = tmp_path / "shard-000.lease-001.jsonl"
        b = tmp_path / "shard-000.lease-002.jsonl"
        _lease_journal(a, "shard-000", 1, successes=1)
        _lease_journal(b, "shard-000", 2, successes=3)
        from repro.inject.merge import merge_shard_journals
        with pytest.raises(MergeConflict) as info:
            merge_shard_journals([str(a), str(b)])
        out = tmp_path / "bundles"
        capture_bundle(
            info.value, capture_point="fabric.merge", out_dir=str(out),
            trial={"kind": "merge"}, outcome=merge_outcome(info.value),
            journal_files={os.path.basename(str(p)): str(p)
                           for p in (a, b)})
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, REPLAY_CLI, str(out)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr or proc.stdout
        assert "1/1 bundle(s) REPRODUCED" in proc.stdout
