"""Service tests: coordinator/worker protocol idempotence under chaos.

The protocol-level tests speak raw frames at a live
:class:`~repro.inject.coordinator.CoordinatorService` over the
in-process transport — duplicated completions, stale fencing tokens
after a steal, reordered heartbeats, batches journaled twice by a
rebase — and the
campaign-level tests pin the headline guarantee: a service deployment's
merged report is byte-identical to the local fabric's, chaos or not.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import FabricConfigError, StaleFencingToken
from repro.inject.coordinator import CoordinatorService, unwire_unit
from repro.inject.engine import CampaignEngine, EngineConfig
from repro.inject.fabric import run_fabric_campaign
from repro.inject.merge import fabric_journal_paths
from repro.inject.transport import (ChaosConfig, ChaosDialer,
                                    InProcessTransport)
from repro.inject.worker import ShardWorker, WorkerConfig

from tests.inject.fabric_driver import (granted_holders, toy_config,
                                        toy_units)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _merged_bytes(fabric_dir):
    with open(os.path.join(fabric_dir, "merged_report.json"), "rb") as fh:
        return fh.read()


def _coordinator_records(fabric_dir):
    records = []
    with open(os.path.join(fabric_dir, "coordinator.jsonl")) as handle:
        for line in handle:
            records.append(json.loads(line))
    return records


def _serve_in_thread(service):
    result = {}

    def target():
        try:
            result["report"] = service.serve()
        except BaseException as exc:  # re-raised by the test
            result["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, result


def _request(conn, message, req, timeout=10.0):
    """One raw protocol request; returns the reply echoing ``req``."""
    framed = dict(message)
    framed["req"] = req
    conn.send(framed)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        reply = conn.recv(timeout=0.05)
        if reply is None:
            continue
        if reply.get("re") == req or reply.get("type") in ("done",
                                                           "drain"):
            return reply
    raise AssertionError(f"no reply to {message}")


def _run_granted_shard(grant):
    """Execute a grant's shard exactly as a worker's engine would."""
    engine = CampaignEngine(EngineConfig(**grant["engine"]))
    units = [unwire_unit(encoded) for encoded in grant["units"]]
    return engine.run(units, grant["journal"],
                      journal_header=grant["header"])


class TestProtocolIdempotence:
    def _service(self, tmp_path, shards=2, units=4, **knobs):
        transport = InProcessTransport()
        service = CoordinatorService(
            str(tmp_path / "fab"),
            config=toy_config(shards=shards, **knobs),
            listener=transport)
        service.submit(toy_units(units))
        return service, transport

    def test_duplicated_completion_is_acknowledged_and_dropped(
            self, tmp_path):
        service, transport = self._service(tmp_path)
        thread, result = _serve_in_thread(service)
        conn = transport.connect()
        grant = _request(conn, {"type": "attach", "worker": "t0"}, "r1")
        assert grant["type"] == "grant"
        _run_granted_shard(grant)
        complete = {"type": "complete", "shard": grant["shard"],
                    "token": grant["token"], "paused": False}
        first = _request(conn, complete, "r2")
        second = _request(conn, complete, "r3")  # at-least-once replay
        assert first["type"] == "ok" and second["type"] == "ok"
        # finish the other shard so the job ends
        grant2 = _request(conn, {"type": "attach", "worker": "t0"}, "r4")
        _run_granted_shard(grant2)
        _request(conn, {"type": "complete", "shard": grant2["shard"],
                        "token": grant2["token"], "paused": False}, "r5")
        thread.join(60)
        assert "error" not in result, result.get("error")
        completions = [record for record
                       in _coordinator_records(service.fabric_dir)
                       if record["type"] == "lease_completed"
                       and record["shard"] == grant["shard"]]
        assert len(completions) == 1  # the duplicate left no record

    def test_attach_resend_reuses_the_grant(self, tmp_path):
        # a lost grant reply must not burn a fencing token: the resent
        # attach gets the *same* lease back
        service, transport = self._service(tmp_path, shards=1, units=2)
        thread, result = _serve_in_thread(service)
        conn = transport.connect()
        first = _request(conn, {"type": "attach", "worker": "t0"}, "r1")
        again = _request(conn, {"type": "attach", "worker": "t0"}, "r2")
        assert (first["shard"], first["token"]) == \
            (again["shard"], again["token"])
        _run_granted_shard(again)
        _request(conn, {"type": "complete", "shard": again["shard"],
                        "token": again["token"], "paused": False}, "r3")
        thread.join(60)
        assert "error" not in result, result.get("error")

    def test_stale_token_completion_rejected_after_steal(self, tmp_path):
        service, transport = self._service(
            tmp_path, shards=1, units=2, lease_ttl_s=0.4)
        thread, result = _serve_in_thread(service)
        conn = transport.connect()
        stale = _request(conn, {"type": "attach", "worker": "t0"}, "r1")
        assert stale["type"] == "grant" and stale["token"] == 1
        time.sleep(0.8)  # no heartbeats: the TTL lapses, lease expires
        fresh = _request(conn, {"type": "attach", "worker": "t0"}, "r2")
        assert fresh["type"] == "grant" and fresh["token"] == 2
        # the zombie claims completion under its superseded token
        reject = _request(conn, {"type": "complete",
                                 "shard": stale["shard"],
                                 "token": stale["token"],
                                 "paused": False}, "r3")
        assert reject["type"] == "reject"
        assert reject["code"] == StaleFencingToken.code
        # the fresh holder beats while it runs, as a worker's pump does:
        # on a loaded host the shard can outlast the 0.4 s TTL
        stop = threading.Event()

        def beat():
            number = 0
            while not stop.wait(0.05):
                number += 1
                conn.send({"type": "heartbeat", "shard": fresh["shard"],
                           "token": fresh["token"], "beat": number})

        beater = threading.Thread(target=beat, daemon=True)
        beater.start()
        _run_granted_shard(fresh)
        stop.set()
        beater.join(5)
        ok = _request(conn, {"type": "complete", "shard": fresh["shard"],
                             "token": fresh["token"], "paused": False},
                      "r4")
        assert ok["type"] == "ok"
        thread.join(60)
        assert "error" not in result, result.get("error")
        kinds = [record["type"]
                 for record in _coordinator_records(service.fabric_dir)]
        assert "lease_expired" in kinds and "lease_rejected" in kinds
        assert result["report"].shard_status == {"shard-000": "completed"}

    def test_reordered_and_duplicated_frames_absorb_once(self, tmp_path):
        service, transport = self._service(
            tmp_path, shards=1, units=1, lease_ttl_s=0.4)
        thread, result = _serve_in_thread(service)
        conn = transport.connect()
        first = _request(conn, {"type": "attach", "worker": "t0"}, "r1")
        shard, token = first["shard"], first["token"]
        # heartbeats arrive out of order: renew keeps the highest beat
        for beat in (3, 1, 2):
            conn.send({"type": "heartbeat", "shard": shard,
                       "token": token, "beat": beat})
        # token 1 journals every batch, then stops beating: its lease
        # expires with the work done but never completed
        _run_granted_shard(first)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and "lease_expired" not in [
                record["type"] for record
                in _coordinator_records(service.fabric_dir)]:
            time.sleep(0.02)
        # token 2's journal is rebased from token 1's, so the
        # coordinator now tails every batch in two lease journals
        second = _request(conn, {"type": "attach", "worker": "t0"}, "r2")
        assert (second["shard"], second["token"]) == (shard, 2)
        _run_granted_shard(second)
        _request(conn, {"type": "complete", "shard": shard,
                        "token": second["token"], "paused": False}, "r3")
        thread.join(60)
        assert "error" not in result, result.get("error")
        batches = []
        for path in fabric_journal_paths(service.fabric_dir):
            with open(path) as handle:
                batches += [record for record in map(json.loads, handle)
                            if record["type"] == "batch"]
        distinct = {(record["unit"], record["index"]): record["trials"]
                    for record in batches}
        assert len(batches) == 2 * len(distinct) > 0
        # the estimator counts each (unit, index) once, as the merge does
        assert service._estimator.trials == sum(distinct.values())
        assert service._estimator.trials == \
            result["report"].estimate.trials

    def test_grant_ships_the_whole_engine_config(self, tmp_path):
        # the journaled to_dict() leaves out fsync and salvage on
        # purpose; a grant must carry them all the same
        import dataclasses
        config = toy_config(shards=1)
        config.engine = dataclasses.replace(
            config.engine, journal_fsync=True, salvage=True)
        transport = InProcessTransport()
        service = CoordinatorService(str(tmp_path / "fab"), config=config,
                                     listener=transport)
        service.submit(toy_units(1))
        thread, result = _serve_in_thread(service)
        conn = transport.connect()
        grant = _request(conn, {"type": "attach", "worker": "t0"}, "r1")
        assert EngineConfig(**grant["engine"]) == \
            config.shard_engine_config()
        _run_granted_shard(grant)
        _request(conn, {"type": "complete", "shard": grant["shard"],
                        "token": grant["token"], "paused": False}, "r2")
        thread.join(60)
        assert "error" not in result, result.get("error")

    def test_reattach_revalidates_the_fencing_token(self, tmp_path):
        service, transport = self._service(tmp_path, shards=1, units=2)
        thread, result = _serve_in_thread(service)
        conn = transport.connect()
        grant = _request(conn, {"type": "attach", "worker": "t0"}, "r1")
        conn.close()  # the connection tears mid-shard
        conn = transport.connect()
        ok = _request(conn, {"type": "reattach", "worker": "t0",
                             "shard": grant["shard"],
                             "token": grant["token"]}, "r2")
        assert ok["type"] == "ok"
        bogus = _request(conn, {"type": "reattach", "worker": "t1",
                                "shard": grant["shard"],
                                "token": 99}, "r3")
        assert bogus["type"] == "reject"
        _run_granted_shard(grant)
        _request(conn, {"type": "complete", "shard": grant["shard"],
                        "token": grant["token"], "paused": False}, "r4")
        thread.join(60)
        assert "error" not in result, result.get("error")


class TestWorkerConfig:
    def test_bad_knobs_are_rejected_as_typed_config_errors(self):
        with pytest.raises(FabricConfigError, match="backoff"):
            WorkerConfig(backoff_s=0.0)
        with pytest.raises(FabricConfigError, match="reconnect"):
            WorkerConfig(max_reconnect_attempts=0)
        with pytest.raises(FabricConfigError, match="request_timeout"):
            WorkerConfig(request_timeout_s=0.0)
        with pytest.raises(FabricConfigError, match="resends"):
            WorkerConfig(max_request_resends=0)


def _run_service_with_workers(fabric_dir, units, config, make_dial,
                              worker_count=3):
    """A service campaign with explicit workers; returns all reports."""
    transport = InProcessTransport()
    service = CoordinatorService(fabric_dir, config=config,
                                 listener=transport)
    service.submit(units)
    workers = [ShardWorker(make_dial(transport, index),
                           worker_id=f"w{index}",
                           config=WorkerConfig(seed=index,
                                               backoff_s=0.01,
                                               backoff_max_s=0.1,
                                               request_timeout_s=1.0))
               for index in range(worker_count)]
    results = [None] * worker_count
    threads = [threading.Thread(
        target=lambda i=i: results.__setitem__(i, workers[i].run()),
        daemon=True) for i in range(worker_count)]
    for thread in threads:
        thread.start()
    report = service.serve()
    transport.close()
    for thread in threads:
        thread.join(timeout=60)
    return report, workers, results


class TestServiceCampaign:
    def test_chaos_reconnect_resume_reaches_identical_counts(
            self, tmp_path):
        """Satellite guarantee: sever the worker transport repeatedly
        (plus drops and duplicates) and the reconnect-reattach-resume
        path converges on counts byte-identical to a fault-free run."""
        ref_dir = str(tmp_path / "ref")
        run_fabric_campaign(toy_units(6), ref_dir, toy_config(shards=3))
        svc_dir = str(tmp_path / "svc")
        chaos = ChaosConfig(seed=13, drop=0.05, dup=0.05,
                            sever_every=25)

        def make_dial(transport, index):
            return ChaosDialer(transport.connect, chaos)

        report, workers, results = _run_service_with_workers(
            svc_dir, toy_units(6), toy_config(shards=3), make_dial)
        assert not report.paused
        assert set(report.shard_status.values()) == {"completed"}
        assert _merged_bytes(svc_dir) == _merged_bytes(ref_dir)
        # chaos actually forced reconnects, and the journals carry the
        # durable connection forensics with their attempt counts
        assert sum(worker.reconnect_attempts for worker in workers) > 0
        attached = []
        for path in fabric_journal_paths(svc_dir):
            with open(path) as handle:
                for line in handle:
                    record = json.loads(line)
                    if record.get("type") in ("worker_attached",
                                              "worker_detached"):
                        attached.append(record)
        assert any(record["type"] == "worker_attached"
                   and "attempts" in record for record in attached)
        assert any(record["type"] == "worker_detached"
                   and "reconnects" in record for record in attached)

    def test_worker_abandons_a_stolen_lease(self, tmp_path):
        # a worker whose lease was stolen while it was partitioned must
        # not complete; the thief's completion wins
        svc_dir = str(tmp_path / "svc")
        config = toy_config(shards=1, lease_ttl_s=0.4)
        transport = InProcessTransport()
        service = CoordinatorService(svc_dir, config=config,
                                     listener=transport)
        service.submit(toy_units(2, delay=0.2))
        thread, result = _serve_in_thread(service)
        # the victim's every frame after grant is swallowed for longer
        # than the TTL: heartbeats stop, the lease expires, and its
        # post-partition reattach must be rejected
        chaos = ChaosConfig(seed=5, partition_window_s=(0.05, 30.0),
                            partition_direction="send")
        victim = ShardWorker(
            ChaosDialer(transport.connect, chaos), worker_id="victim",
            config=WorkerConfig(seed=0, backoff_s=0.01,
                                backoff_max_s=0.05,
                                max_reconnect_attempts=2,
                                request_timeout_s=0.3))
        victim_result = {}
        victim_thread = threading.Thread(
            target=lambda: victim_result.update(
                report=victim.run()), daemon=True)
        victim_thread.start()
        time.sleep(0.8)  # let the victim's lease lapse
        thief = ShardWorker(transport.connect, worker_id="thief",
                            config=WorkerConfig(seed=1, backoff_s=0.01,
                                                backoff_max_s=0.1))
        thief_report = thief.run()
        thread.join(60)
        victim_thread.join(30)
        assert "error" not in result, result.get("error")
        assert [entry["outcome"] for entry in thief_report.shards] == \
            ["completed"]
        report = victim_result.get("report")
        if report is not None and report.shards:
            assert report.shards[0]["outcome"] in ("abandoned", "lost",
                                                   "rejected")
        # the durable truth: exactly one completion, under the thief's
        # fencing token — the zombie's was never acknowledged
        completions = [record for record
                       in _coordinator_records(svc_dir)
                       if record["type"] == "lease_completed"]
        assert [record["token"] for record in completions] == [2]


@pytest.mark.slow
class TestServiceChaosSocket:
    """The CI acceptance scenario: socket transport, chaos schedule on a
    worker, one worker SIGKILLed mid-shard — merged report byte-identical
    to a fault-free local-fabric run."""

    DRIVER = [sys.executable, "-m", "tests.inject.service_driver"]
    ARGS = ["--shards", "3", "--units", "6", "--delay", "0.05",
            "--batch-size", "10", "--batches", "6", "--lease-ttl",
            "2.0"]

    def _spawn(self, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.Popen(
            list(self.DRIVER) + list(extra), cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)

    def _wait_for_progress(self, fabric_dir, min_bytes=400,
                           deadline_s=60.0):
        deadline = time.time() + deadline_s
        while time.time() < deadline:
            try:
                sizes = [os.path.getsize(path)
                         for path in fabric_journal_paths(fabric_dir)]
            except OSError:
                sizes = []
            if sizes and max(sizes) >= min_bytes:
                return
            time.sleep(0.05)
        raise AssertionError("service made no journal progress")

    def _wait_for_lease(self, fabric_dir, worker, deadline_s=60.0):
        """Block until ``worker`` holds a lease, so killing it steals one."""
        deadline = time.time() + deadline_s
        while time.time() < deadline:
            if worker in granted_holders(fabric_dir):
                return
            time.sleep(0.02)
        raise AssertionError(f"{worker} was never granted a lease")

    def test_socket_chaos_and_worker_sigkill_byte_identical(
            self, tmp_path):
        seed = int(os.environ.get("REPRO_STRESS_SEED", "0"))
        # the fault-free oracle: the local fabric, same units/config
        ref_dir = str(tmp_path / "ref")
        run_fabric_campaign(
            toy_units(6, seed=seed, delay=0.05), ref_dir,
            toy_config(shards=3, lease_ttl_s=2.0, batch_size=10,
                       max_batches=6))

        svc_dir = str(tmp_path / "svc")
        sock = str(tmp_path / "fab.sock")
        coordinator = self._spawn(
            "--listen", sock, "--fabric-dir", svc_dir,
            "--seed", str(seed), *self.ARGS)
        workers = {}
        try:
            deadline = time.time() + 30.0
            while not os.path.exists(sock) and time.time() < deadline:
                time.sleep(0.05)
            # one chaos-ridden worker (drops, duplicates, and a timed
            # one-way partition), one clean worker, one victim
            workers["chaotic"] = self._spawn(
                "--attach", sock, "--worker-id", "chaotic",
                "--worker-seed", "1", "--chaos-seed", str(seed + 7),
                "--drop", "0.05", "--dup", "0.05",
                "--partition", "1.0,1.6")
            workers["clean"] = self._spawn(
                "--attach", sock, "--worker-id", "clean",
                "--worker-seed", "2")
            workers["victim"] = self._spawn(
                "--attach", sock, "--worker-id", "victim",
                "--worker-seed", "3")
            self._wait_for_progress(svc_dir)
            self._wait_for_lease(svc_dir, "victim")
            workers["victim"].send_signal(signal.SIGKILL)
            # a replacement appears, as fleets do
            workers["spare"] = self._spawn(
                "--attach", sock, "--worker-id", "spare",
                "--worker-seed", "4")
            output = coordinator.stdout.read()
            assert coordinator.wait(300) == 0, output
            assert "SERVICE_DONE paused=False" in output
        finally:
            for process in workers.values():
                if process.poll() is None:
                    process.kill()
            if coordinator.poll() is None:
                coordinator.kill()
            for process in list(workers.values()) + [coordinator]:
                process.wait(60)

        assert _merged_bytes(svc_dir) == _merged_bytes(ref_dir)
        # the kill left its mark: some lease expired and was re-granted
        kinds = [record["type"] for record in
                 _coordinator_records(svc_dir)]
        assert "lease_expired" in kinds
        tokens = [record["token"] for record in
                  _coordinator_records(svc_dir)
                  if record["type"] == "lease_granted"]
        assert max(tokens) >= 2
