"""Tests for certification-as-a-service.

The contract under test: cache hits are byte-identical and sweep
nothing; incremental recertification re-sweeps exactly the claims a
delta touched (asserted by counting enumerated strikes) and stitches
the rest forward with provenance; degradation serves prior
certificates *marked* while strict mode refuses them; and the
single-flight lock means two racing processes share one sweep.

The ``@slow`` class adds the store-chaos CI scenarios: a lookup
SIGKILLed mid-sweep leaves the store clean and a fresh process
completes the same key, and hand-corrupted entries quarantine and fall
through to fresh sweeps.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.certify.service import CertificateService
from repro.certify.store import CertificateStore, scheme_cache_identity
from repro.ecc import DetectOnlySwap, ResidueCode, SecDedDpSwap
from repro.errors import CertificationError, StaleCertificate

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DRIVER = [sys.executable, "-m", "tests.certify.cert_service_driver"]


def make_service(tmp_path, **kwargs):
    store = CertificateStore(str(tmp_path / "cache"))
    return CertificateService(store, **kwargs)


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sweep_journal_records(store, key):
    path = os.path.join(store.sweeps_dir, key, "journal.jsonl")
    records = []
    with open(path) as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
    return records


class TestHitPath:
    def test_miss_then_hit_is_byte_identical(self, tmp_path):
        service = make_service(tmp_path)
        first = service.lookup("parity")
        assert first.cache == "miss"
        second = service.lookup("parity")
        assert second.cache == "hit"
        assert canonical(second.payload) == canonical(first.payload)

    def test_hit_runs_no_sweep(self, tmp_path):
        service = make_service(tmp_path)
        service.lookup("parity")
        sweeps_before = service.counters["sweeps"]
        service.lookup("parity")
        assert service.counters["sweeps"] == sweeps_before

    def test_unknown_scheme_is_typed(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(CertificationError):
            service.lookup("nonesuch")

    def test_distinct_seeds_get_distinct_entries(self, tmp_path):
        store = CertificateStore(str(tmp_path / "cache"))
        first = CertificateService(store, seed=0).lookup("mod7")
        second = CertificateService(store, seed=1).lookup("mod7")
        assert first.cache == second.cache == "miss"
        assert first.key != second.key


class TestIncrementalRecertification:
    def registry(self, policy):
        return {"secded-dp":
                lambda: SecDedDpSwap(check_correction=policy)}

    def test_policy_delta_resweeps_only_the_policy_claim(self, tmp_path):
        store = CertificateStore(str(tmp_path / "cache"))
        baseline = CertificateService(
            store, registry=self.registry("accept")).lookup("secded-dp")
        assert baseline.cache == "miss"
        full_strikes = baseline.payload["certificate"]["strikes_swept"]

        served = CertificateService(
            store, registry=self.registry("strict")).lookup("secded-dp")
        assert served.cache == "incremental"
        provenance = served.payload["provenance"]
        assert provenance["recertified"] == \
            ["corrects-all-single-storage"]
        assert provenance["parent_key"] == baseline.key
        # the partial sweep enumerated only the touched claim's strike
        # tiers — a small fraction of the full space
        partial_strikes = served.payload["certificate"]["strikes_swept"]
        assert 0 < partial_strikes < full_strikes / 10
        # every untouched claim came forward with provenance
        carried = provenance["carried_forward"]
        assert set(carried) == \
            set(baseline.payload["certificate"]["claims"]) \
            - {"corrects-all-single-storage"}
        assert all(value == baseline.key for value in carried.values())

    def test_stitched_certificate_is_complete_and_cached(self, tmp_path):
        store = CertificateStore(str(tmp_path / "cache"))
        CertificateService(
            store, registry=self.registry("accept")).lookup("secded-dp")
        strict_service = CertificateService(
            store, registry=self.registry("strict"))
        stitched = strict_service.lookup("secded-dp")
        assert set(stitched.payload["certificate"]["claims"]) == \
            set(stitched.payload["claim_versions"])
        assert stitched.payload["certificate"]["passed"] is True
        # the stitched entry is now a first-class cache hit
        again = strict_service.lookup("secded-dp")
        assert again.cache == "hit"
        assert canonical(again.payload) == canonical(stitched.payload)

    def test_carried_claims_keep_their_prior_verdicts(self, tmp_path):
        store = CertificateStore(str(tmp_path / "cache"))
        baseline = CertificateService(
            store, registry=self.registry("accept")).lookup("secded-dp")
        served = CertificateService(
            store, registry=self.registry("strict")).lookup("secded-dp")
        for name in served.payload["provenance"]["carried_forward"]:
            assert served.payload["certificate"]["claims"][name] == \
                baseline.payload["certificate"]["claims"][name]

    def test_modulus_delta_is_a_full_resweep(self, tmp_path):
        store = CertificateStore(str(tmp_path / "cache"))
        CertificateService(store, registry={
            "res": lambda: DetectOnlySwap(ResidueCode(7))}).lookup("res")
        served = CertificateService(store, registry={
            "res": lambda: DetectOnlySwap(ResidueCode(15))}).lookup("res")
        # every claim depends on the code identity, so nothing carries
        assert served.cache == "miss"
        assert served.payload["provenance"]["parent_key"] is None


class TestGracefulDegradation:
    def test_stale_served_marked_while_sweep_in_flight(self, tmp_path):
        store = CertificateStore(str(tmp_path / "cache"))
        prior = CertificateService(store, registry={
            "secded-dp": lambda: SecDedDpSwap()}).lookup("secded-dp")
        service = CertificateService(store, registry={
            "secded-dp":
            lambda: SecDedDpSwap(check_correction="strict")})
        scheme = SecDedDpSwap(check_correction="strict")
        _, _, _, new_key = scheme_cache_identity(scheme, "fast", 0)
        holder = store.lock(new_key)
        assert holder.acquire(blocking=False)
        try:
            served = service.lookup("secded-dp")
        finally:
            holder.release()
        assert served.cache == "stale"
        assert served.key == prior.key
        assert served.staleness["reason"] == "sweep_in_flight"
        assert served.staleness["superseded_by_key"] == new_key
        assert served.staleness["age_s"] >= 0.0
        assert service.counters["stale_served"] == 1

    def test_strict_turns_staleness_into_typed_refusal(self, tmp_path):
        store = CertificateStore(str(tmp_path / "cache"))
        CertificateService(store, registry={
            "secded-dp": lambda: SecDedDpSwap()}).lookup("secded-dp")
        service = CertificateService(store, strict=True, registry={
            "secded-dp":
            lambda: SecDedDpSwap(check_correction="strict")})
        scheme = SecDedDpSwap(check_correction="strict")
        _, _, _, new_key = scheme_cache_identity(scheme, "fast", 0)
        holder = store.lock(new_key)
        assert holder.acquire(blocking=False)
        try:
            with pytest.raises(StaleCertificate) as info:
                service.lookup("secded-dp")
        finally:
            holder.release()
        assert info.value.context["staleness"]["superseded_by_key"] \
            == new_key
        assert service.counters["refusals"] == 1

    def test_no_prior_waits_out_the_lock_then_hits(self, tmp_path):
        service = make_service(tmp_path, lock_timeout_s=20.0)
        scheme = service._registry["parity"]()
        _, _, _, key = scheme_cache_identity(scheme, "fast", 0)
        holder = service.store.lock(key)
        assert holder.acquire(blocking=False)

        def sweep_and_release():
            # simulate the in-flight owner finishing its sweep
            time.sleep(0.2)
            owner = CertificateService(service.store)
            # the owner holds the fcntl lock already (this thread's
            # handle), so publish directly and release
            served = owner._certify_under_lock(
                "parity", scheme, key,
                *scheme_cache_identity(scheme, "fast", 0)[:3])
            assert served.cache == "miss"
            holder.release()

        thread = threading.Thread(target=sweep_and_release)
        thread.start()
        served = service.lookup("parity")
        thread.join(timeout=30.0)
        assert served.cache == "hit"

    def test_corrupt_entry_falls_through_to_fresh_sweep(self, tmp_path):
        service = make_service(tmp_path)
        first = service.lookup("parity")
        path = service.store.entry_path(first.key)
        with open(path, "w") as handle:
            handle.write('{"kind": "swapcodes-cert-entry", "torn')
        served = service.lookup("parity")
        assert served.cache == "miss"
        assert service.store.counters["quarantined"] >= 1
        records = service.store.dead_letter_records()
        assert any(record["error"]["code"] == "certify.store_corrupt"
                   for record in records)
        assert canonical(served.payload["certificate"]) == \
            canonical(first.payload["certificate"])


def _race_lookup(cache_dir, queue):
    store = CertificateStore(cache_dir)
    service = CertificateService(store)
    served = service.lookup("parity")
    queue.put((served.cache, served.key, canonical(served.payload)))


class TestSingleFlight:
    def test_two_processes_share_exactly_one_sweep(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        racers = [context.Process(target=_race_lookup,
                                  args=(cache_dir, queue))
                  for _ in range(2)]
        for racer in racers:
            racer.start()
        results = [queue.get(timeout=120) for _ in racers]
        for racer in racers:
            racer.join(timeout=30)
            assert racer.exitcode == 0
        # both served the same key, byte-identically
        assert len({key for _, key, _ in results}) == 1
        assert len({payload for _, _, payload in results}) == 1
        # and the shared sweep journal shows exactly one sweep start
        store = CertificateStore(cache_dir)
        key = results[0][1]
        records = sweep_journal_records(store, key)
        starts = [record for record in records
                  if record.get("type") == "unit_started"]
        assert len(starts) == 1


def _spawn_driver(*extra, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.Popen(DRIVER + list(extra), cwd=REPO_ROOT,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def _wait_for_line(process, token, deadline_s=60.0):
    deadline = time.time() + deadline_s
    lines = []
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line)
        if token in line:
            return line
    raise AssertionError(
        f"driver never printed {token!r}; got: {''.join(lines)}")


@pytest.mark.slow
class TestServiceChaos:
    """The cert-store-chaos CI scenarios (3-seed matrix)."""

    def seed(self):
        return int(os.environ.get("REPRO_STRESS_SEED", "0"))

    def test_sigkill_mid_sweep_resumes_to_complete_cert(self, tmp_path):
        cache = str(tmp_path / "cache")
        hold = str(tmp_path / "hold")
        with open(hold, "w") as handle:
            handle.write("hold\n")
        victim = _spawn_driver("--lookup", cache, "--scheme", "secded-dp",
                               "--seed", str(self.seed()),
                               "--hold-file", hold)
        try:
            started = _wait_for_line(victim, "SWEEP_STARTED")
            victim.send_signal(signal.SIGKILL)
            victim.wait(30)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(30)
        os.unlink(hold)
        key = started.split("key=")[1].split()[0]

        # the store survived the kill with zero torn entries
        audit = CertificateStore(cache).verify_all()
        assert audit["quarantined"] == []

        # a fresh process completes the sweep and publishes a full,
        # verified certificate for the same key
        fresh = _spawn_driver("--lookup", cache, "--scheme", "secded-dp",
                              "--seed", str(self.seed()))
        output = fresh.stdout.read()
        assert fresh.wait(300) == 0, output
        assert f"LOOKUP_OK cache=miss key={key} passed=True" in output
        payload = CertificateStore(cache).get(key)
        assert payload["certificate"]["passed"] is True
        assert set(payload["certificate"]["claims"]) == \
            set(payload["claim_versions"])
        final_audit = CertificateStore(cache).verify_all()
        assert final_audit["quarantined"] == []
        assert key in final_audit["ok"]

    def test_hand_corrupted_entry_quarantines_and_resweeps(
            self, tmp_path):
        cache = str(tmp_path / "cache")
        store = CertificateStore(cache)
        service = CertificateService(store, seed=self.seed())
        first = service.lookup("mod7")
        # hand-corrupt the cached entry on disk (one byte in the
        # payload body, envelope left intact)
        path = store.entry_path(first.key)
        with open(path) as handle:
            raw = handle.read()
        with open(path, "w") as handle:
            handle.write(raw.replace('"passed": true',
                                     '"passed": false'))
        served = CertificateService(store,
                                    seed=self.seed()).lookup("mod7")
        assert served.cache == "miss"
        assert served.payload["certificate"]["passed"] is True
        records = store.dead_letter_records()
        assert any(record["error"]["code"] == "certify.store_corrupt"
                   for record in records)
        audit = store.verify_all()
        assert audit["quarantined"] == []
        assert first.key in audit["ok"]
