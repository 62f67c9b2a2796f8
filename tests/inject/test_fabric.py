"""Fabric tests: leased shards, work stealing, drains and chaos."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import FabricConfigError, FabricError
from repro.inject import engine as engine_module
from repro.inject.engine import CampaignEngine, WorkUnit
from repro.inject.fabric import (CampaignFabric, FabricConfig,
                                 run_fabric_campaign)
from repro.inject.journal import Journal
from repro.inject.merge import fabric_journal_paths

from tests.inject.fabric_driver import (granted_holders, toy_config,
                                        toy_runner, toy_units)

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


def _journal_records(path):
    """The parsed records of a journal, skipping a line still in flight."""
    with open(path) as handle:
        for line in handle:
            try:
                yield json.loads(line)
            except ValueError:
                continue


def _alive(pid):
    """True while ``pid`` runs (an exited, unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def _journal_as_global_stop(fabric_dir):
    """Rewrite a drained fabric's coordinator journal the way the
    retired fleet-wide early stop wrote it: a ``global_stop`` record,
    then every drained lease completed with ``paused: true``."""
    records = _coordinator_records(fabric_dir)[1:]
    path = os.path.join(fabric_dir, "coordinator.jsonl")
    os.remove(path)
    journal = Journal(path, header={"role": "fabric-coordinator"})
    stopped = False
    for record in records:
        record = {key: value for key, value in record.items()
                  if key not in ("rix", "crc")}
        if record["type"] == "lease_paused":
            if not stopped:
                journal.append({"type": "global_stop",
                                "reason": "global early-stop"})
                stopped = True
            record.update(type="lease_completed", paused=True)
        journal.append(record)
    journal.close()
    assert stopped


def _run_in_thread(fabric):
    """Run a fabric off the main thread; returns (thread, result dict)."""
    result = {}

    def target():
        try:
            result["report"] = fabric.run()
        except BaseException as exc:  # re-raised by the test
            result["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, result


def _stamped_toy_runner(params, context, batch):
    """``toy_runner`` after a 50 ms sleep, stamping its holder and times.

    Each batch writes ``[holder pid, start, end]`` (the batch worker's
    parent is the holder; one monotonic clock serves every process) to
    a file of its own under ``params["stamps"]``.
    """
    start = time.monotonic()
    time.sleep(0.05)
    result = toy_runner(params, context, batch)
    name = f"{os.getpid()}-{time.monotonic_ns()}.json"
    with open(os.path.join(params["stamps"], name), "w") as handle:
        json.dump([os.getppid(), start, time.monotonic()], handle)
    return result


def _leased_holder_process(fabric, deadline_s=30.0):
    """Wait until a live holder holds a lease; return (shard, process)."""
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        granted = granted_holders(fabric.fabric_dir)
        for holder, process in sorted(fabric.processes.items()):
            if holder in granted and process.is_alive():
                return granted[holder], process
        time.sleep(0.01)
    raise AssertionError("no holder was granted a lease")


class TestFabricBasics:
    def test_partitioned_campaign_completes(self, tmp_path):
        fabric_dir = str(tmp_path / "fab")
        report = run_fabric_campaign(toy_units(4), fabric_dir,
                                     toy_config(shards=2))
        assert not report.paused
        assert set(report.shard_status.values()) == {"completed"}
        assert {unit.status for unit in report.report.units.values()} == \
            {"completed"}
        assert report.report.units["u0"].trials == 120  # 6 batches of 20
        kinds = [record["type"]
                 for record in _coordinator_records(fabric_dir)]
        assert kinds[-1] == "fabric_done"
        assert os.path.exists(os.path.join(fabric_dir,
                                           "merged_report.json"))

    def test_rerunning_a_finished_fabric_is_idempotent(self, tmp_path):
        fabric_dir = str(tmp_path / "fab")
        run_fabric_campaign(toy_units(4), fabric_dir, toy_config(shards=2))
        first = _merged_bytes(fabric_dir)
        report = run_fabric_campaign(toy_units(4), fabric_dir,
                                     toy_config(shards=2))
        assert _merged_bytes(fabric_dir) == first
        assert set(report.shard_status.values()) == {"completed"}

    def test_twin_fabrics_are_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            run_fabric_campaign(toy_units(4), str(tmp_path / name),
                                toy_config(shards=2))
        assert _merged_bytes(str(tmp_path / "a")) == \
            _merged_bytes(str(tmp_path / "b"))

    def test_changed_plan_is_refused(self, tmp_path):
        fabric_dir = str(tmp_path / "fab")
        run_fabric_campaign(toy_units(4), fabric_dir, toy_config(shards=2))
        with pytest.raises(FabricError, match="planned with shards"):
            run_fabric_campaign(toy_units(6), fabric_dir,
                                toy_config(shards=2))

    def test_duplicate_unit_ids_are_rejected(self, tmp_path):
        units = toy_units(2) + toy_units(1)
        with pytest.raises(FabricError, match="duplicate unit ids"):
            CampaignFabric(units, str(tmp_path / "fab"),
                           toy_config(shards=2))

    def test_bad_config_knobs_are_rejected(self):
        with pytest.raises(FabricError, match="shards"):
            FabricConfig(shards=0)
        for attempts in (0, -1):
            with pytest.raises(FabricConfigError,
                               match="max_lease_attempts"):
                FabricConfig(max_lease_attempts=attempts)

    def test_config_errors_are_typed_and_non_transient(self):
        # misconfiguration is its own error class — callers can tell a
        # bad knob (fix the config) from a runtime fabric failure
        # (inspect the journals) without parsing messages
        assert issubclass(FabricConfigError, FabricError)
        for knobs in ({"shards": 0}, {"max_lease_attempts": 0}):
            with pytest.raises(FabricConfigError) as excinfo:
                FabricConfig(**knobs)
            assert excinfo.value.code == "inject.fabric_config"
            assert excinfo.value.severity == "config"
            assert excinfo.value.recoverable is False

    def test_config_has_three_knobs(self):
        # one mode only: partitioned shards, re-granted whenever a
        # holder dies, until max_lease_attempts
        assert [knob.name for knob in dataclasses.fields(FabricConfig)] \
            == ["shards", "max_lease_attempts", "engine"]

    def test_grant_ships_the_whole_engine_config(self, tmp_path,
                                                 monkeypatch):
        # the journaled to_dict() leaves out fsync and salvage on
        # purpose; the holder's engine must get them all the same
        import pickle

        from repro.inject import fabric as fabric_module
        record = str(tmp_path / "engine_config.pickle")

        class RecordingEngine(fabric_module.CampaignEngine):
            def __init__(self, config=None, supervisor=None):
                super().__init__(config, supervisor)
                with open(record, "wb") as handle:
                    pickle.dump(config, handle)

        # forked holders inherit the patched module global
        monkeypatch.setattr(fabric_module, "CampaignEngine",
                            RecordingEngine)
        config = toy_config(shards=1)
        config.engine = dataclasses.replace(
            config.engine, journal_fsync=True, salvage=True)
        report = run_fabric_campaign(toy_units(1), str(tmp_path / "fab"),
                                     config)
        assert report.shard_status == {"shard-000": "completed"}
        with open(record, "rb") as handle:
            assert pickle.load(handle) == config.shard_engine_config()

    def test_each_holder_runs_one_batch_at_a_time(self, tmp_path,
                                                  monkeypatch):
        # a holder's control-watcher thread keeps its engine at one
        # slot, though the engine sees two CPUs (forks inherit both
        # patches)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setitem(engine_module._RUNNERS, "fabric-stamp",
                            _stamped_toy_runner)
        stamps = tmp_path / "stamps"
        stamps.mkdir()
        units = [WorkUnit(f"u{index}", "fabric-stamp",
                          {"seed": index, "stamps": str(stamps)})
                 for index in range(4)]
        report = run_fabric_campaign(units, str(tmp_path / "fab"),
                                     toy_config(shards=2, max_batches=3))
        assert set(report.shard_status.values()) == {"completed"}
        runs = {}
        for name in os.listdir(stamps):
            with open(stamps / name) as handle:
                holder, start, end = json.load(handle)
            runs.setdefault(holder, []).append((start, end))
        assert sorted(len(spans) for spans in runs.values()) == [6, 6]
        for spans in runs.values():
            spans.sort()
            assert all(earlier[1] <= later[0]
                       for earlier, later in zip(spans, spans[1:]))


def _unit_results(report):
    """unit id -> (status, nonzero counts, trials, successes, batches)."""
    return {unit.unit_id: (unit.status,
                           {key: count for key, count
                            in unit.counts.items() if count},
                           unit.trials, unit.successes, unit.batches)
            for unit in report.units.values()}


class TestShardCount:
    """shards=N is an execution strategy, not a statistical change."""

    @pytest.fixture(scope="class")
    def one_engine(self):
        return CampaignEngine(
            toy_config().shard_engine_config()).run(toy_units(5))

    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 8])
    def test_unit_results_do_not_depend_on_the_shard_count(
            self, tmp_path, one_engine, shards):
        # every unit runs whole inside one shard, so any shard count,
        # more shards than units included, reaches one engine's counts
        report = run_fabric_campaign(toy_units(5), str(tmp_path / "fab"),
                                     toy_config(shards=shards))
        assert len(report.shard_status) == min(shards, 5)
        assert set(report.shard_status.values()) == {"completed"}
        assert _unit_results(report.report) == _unit_results(one_engine)
        assert {key: count for key, count
                in report.report.total_counts().items() if count} == \
            {key: count for key, count
             in one_engine.total_counts().items() if count}


class TestChaos:
    def test_shard_sigkill_mid_lease_is_count_identical(self, tmp_path):
        """The headline guarantee: SIGKILL one of 4 shards mid-lease and
        the stolen, rebased, merged campaign is byte-identical to an
        undisturbed same-seed run."""
        units = toy_units(8, delay=0.05)
        config = toy_config(shards=4, batch_size=10, max_batches=4)
        undisturbed_dir = str(tmp_path / "undisturbed")
        run_fabric_campaign(toy_units(8, delay=0.05), undisturbed_dir,
                            toy_config(shards=4, batch_size=10,
                                       max_batches=4))

        chaos_dir = str(tmp_path / "chaos")
        fabric = CampaignFabric(units, chaos_dir, config)
        thread, result = _run_in_thread(fabric)
        victim, process = _leased_holder_process(fabric)
        time.sleep(0.3)  # let it journal a batch or two first
        os.kill(process.pid, signal.SIGKILL)
        thread.join(120)
        assert "error" not in result, result.get("error")
        report = result["report"]
        assert set(report.shard_status.values()) == {"completed"}
        # the victim's lease really was stolen: a second grant exists
        assert os.path.exists(
            os.path.join(chaos_dir, f"{victim}.lease-002.jsonl"))
        expiries = [record for record
                    in _coordinator_records(chaos_dir)
                    if record["type"] == "lease_expired"]
        assert any(record["shard"] == victim for record in expiries)
        assert _merged_bytes(chaos_dir) == _merged_bytes(undisturbed_dir)

    def test_sole_holder_sigkill_is_replaced_and_byte_identical(
            self, tmp_path):
        """A 1-shard fabric has no other holder to steal the lease: the
        coordinator forks a replacement, which takes the expired lease
        as lease-002 and finishes byte-identical to an undisturbed run."""
        config = toy_config(shards=1, batch_size=10, max_batches=4)
        undisturbed_dir = str(tmp_path / "undisturbed")
        run_fabric_campaign(toy_units(2, delay=0.05), undisturbed_dir,
                            config)

        chaos_dir = str(tmp_path / "chaos")
        fabric = CampaignFabric(toy_units(2, delay=0.05), chaos_dir,
                                config)
        thread, result = _run_in_thread(fabric)
        shard, process = _leased_holder_process(fabric)
        time.sleep(0.15)  # let it journal a batch or two first
        os.kill(process.pid, signal.SIGKILL)
        thread.join(120)
        assert "error" not in result, result.get("error")
        assert result["report"].shard_status == {shard: "completed"}
        assert os.path.exists(
            os.path.join(chaos_dir, f"{shard}.lease-002.jsonl"))
        kinds = [record["type"]
                 for record in _coordinator_records(chaos_dir)]
        assert "lease_expired" in kinds
        assert _merged_bytes(chaos_dir) == _merged_bytes(undisturbed_dir)

    def test_poison_shard_exhausts_its_lease_attempts(self, tmp_path):
        # a unit kind no holder has registered makes every holder exit
        # 1; each exit expires its lease at once, so the second grant's
        # exit exhausts max_lease_attempts=2 without waiting on a timer
        fabric_dir = str(tmp_path / "fab")
        units = [WorkUnit("u0", "fabric-unregistered", {"seed": 0})]
        with pytest.raises(FabricError, match="exhausted") as excinfo:
            run_fabric_campaign(units, fabric_dir,
                                toy_config(shards=1, max_lease_attempts=2))
        assert excinfo.value.context == {"shard": "shard-000", "token": 2}
        expiries = [record for record
                    in _coordinator_records(fabric_dir)
                    if record["type"] == "lease_expired"]
        assert [record["token"] for record in expiries] == [1, 2]
        assert all(record["reason"].endswith("exited with code 1")
                   for record in expiries)

    def test_an_error_kills_and_reaps_every_holder(self, tmp_path):
        # the poison shard's error ends the run while the other shard's
        # holder is still sweeping; no holder may outlive it
        fabric_dir = str(tmp_path / "fab")
        units = [WorkUnit("u0", "fabric-unregistered", {"seed": 0}),
                 toy_units(2, delay=0.1)[1]]
        fabric = CampaignFabric(units, fabric_dir,
                                toy_config(shards=2, max_lease_attempts=2))
        thread, result = _run_in_thread(fabric)
        pids = {}
        deadline = time.time() + 60.0
        while thread.is_alive() and time.time() < deadline:
            pids.update((holder, process.pid) for holder, process
                        in list(fabric.processes.items()))
            time.sleep(0.005)
        thread.join(1)
        assert not thread.is_alive()
        assert isinstance(result.get("error"), FabricError)
        granted = granted_holders(fabric_dir)
        assert "shard-001" in {granted[holder] for holder in pids}
        for pid in pids.values():
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("journaled_as", ["drain", "global-stop"])
    def test_programmatic_drain_pauses_and_resume_finishes(
            self, tmp_path, journaled_as):
        fabric_dir = str(tmp_path / "fab")
        units = toy_units(8, delay=0.1)
        config = toy_config(shards=2, batch_size=10, max_batches=6)
        fabric = CampaignFabric(units, fabric_dir, config)
        thread, result = _run_in_thread(fabric)
        _leased_holder_process(fabric)
        fabric.request_drain("test interruption")
        thread.join(60)
        assert "error" not in result, result.get("error")
        assert result["report"].paused
        # the drain reached every holder
        assert set(result["report"].shard_status.values()) == {"paused"}
        if journaled_as == "global-stop":
            _journal_as_global_stop(fabric_dir)
        # resuming against the same dir finishes the remaining work
        resumed = run_fabric_campaign(units, fabric_dir, config)
        assert not resumed.paused
        assert set(resumed.shard_status.values()) == {"completed"}
        twin_dir = str(tmp_path / "twin")
        run_fabric_campaign(toy_units(8, delay=0.1), twin_dir, config)
        assert _merged_bytes(fabric_dir) == _merged_bytes(twin_dir)


@pytest.mark.slow
class TestCoordinatorCrash:
    """The full acceptance scenario: shard *and* coordinator SIGKILL."""

    def _driver(self, fabric_dir, seed):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.Popen(
            [sys.executable, "-m", "tests.inject.fabric_driver",
             "--fabric-dir", fabric_dir, "--shards", "4",
             "--units", "8", "--seed", str(seed), "--delay", "0.05",
             "--batch-size", "10", "--batches", "6"],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)

    def _wait_for_progress(self, fabric_dir, min_bytes=400,
                           deadline_s=60.0):
        """Block until some lease journal holds durable batch records."""
        deadline = time.time() + deadline_s
        while time.time() < deadline:
            sizes = [os.path.getsize(path)
                     for path in fabric_journal_paths(fabric_dir)]
            if sizes and max(sizes) >= min_bytes:
                return
            time.sleep(0.05)
        raise AssertionError("fabric made no journal progress")

    def _attached(self, fabric_dir):
        """(lease journal, worker_attached record) for every holder."""
        return [(path, record) for path in fabric_journal_paths(fabric_dir)
                for record in _journal_records(path)
                if record.get("type") == "worker_attached"]

    def _holder_pid(self, fabric_dir, deadline_s=60.0):
        """A holder's pid, from a lease journal's worker_attached record."""
        deadline = time.time() + deadline_s
        while time.time() < deadline:
            attached = self._attached(fabric_dir)
            if attached:
                return attached[0][1]["pid"]
            time.sleep(0.05)
        raise AssertionError("no holder attached")

    def _assert_orphans_drain(self, fabric_dir, killed, deadline_s=10.0):
        """Holders outliving their coordinator drain and exit."""
        def batches(records):
            return sum(record.get("type") == "batch" for record in records)

        planned = next(
            record["shards"] for record in _journal_records(
                os.path.join(fabric_dir, "coordinator.jsonl"))
            if record.get("type") == "fabric_planned")
        orphans = [(path, record, batches(_journal_records(path)))
                   for path, record in self._attached(fabric_dir)
                   if record["pid"] != killed]
        deadline = time.time() + deadline_s
        for __, record, __ in orphans:
            while _alive(record["pid"]):
                assert time.time() < deadline, \
                    f"holder {record['pid']} outlived its coordinator"
                time.sleep(0.02)
        for path, record, before in orphans:
            records = list(_journal_records(path))
            # only the batch in flight when the pipe closed may land
            assert batches(records) - before <= 1, path
            finished = {entry.get("unit") for entry in records
                        if entry.get("type") == "unit_done"}
            # a holder whose in-flight batch was its shard's last has
            # nothing to drain; every other one paused at a safe point
            assert records[-1]["type"] == "campaign_paused" or \
                finished >= set(planned[record["shard"]]), path

    def test_sigkilled_shard_and_coordinator_resume_byte_identical(
            self, tmp_path):
        seed = int(os.environ.get("REPRO_STRESS_SEED", "0"))
        undisturbed_dir = str(tmp_path / "undisturbed")
        twin = self._driver(undisturbed_dir, seed)
        assert twin.wait(300) == 0, twin.stdout.read()

        chaos_dir = str(tmp_path / "chaos")
        coordinator = self._driver(chaos_dir, seed)
        try:
            self._wait_for_progress(chaos_dir)
            victim = self._holder_pid(chaos_dir)
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.5)  # let the kill land mid-lease
            coordinator.kill()
            coordinator.wait(60)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait(60)
        # the dead coordinator closed every control pipe by dying
        self._assert_orphans_drain(chaos_dir, killed=victim)

        resumed = self._driver(chaos_dir, seed)
        output = resumed.stdout.read()
        assert resumed.wait(300) == 0, output
        assert "FABRIC_DONE paused=False" in output
        assert _merged_bytes(chaos_dir) == _merged_bytes(undisturbed_dir)
        # the coordinator journal proves the crash story: grants under
        # higher fencing tokens after the restart
        tokens = {}
        for record in _coordinator_records(chaos_dir):
            if record["type"] == "lease_granted":
                tokens[record["shard"]] = max(
                    tokens.get(record["shard"], 0), record["token"])
        assert max(tokens.values()) >= 2
