"""Tests for the hardened campaign supervisor: budgets, quarantine, drains."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import InjectionError
from repro.inject import (CampaignEngine, CampaignSupervisor, EngineConfig,
                          ResourceBudget, SupervisorConfig, WorkUnit,
                          register_unit_kind)
from repro.inject.journal import JournalState
from repro.inject.supervisor import coerce_supervisor

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _ok_runner(params, context, batch):
    return {"trials": batch.size, "successes": 0,
            "counts": {"masked": batch.size}}


def _slow_runner(params, context, batch):
    time.sleep(params.get("delay", 0.25))
    return {"trials": batch.size, "successes": 1,
            "counts": {"due": 1, "masked": batch.size - 1}}


def _poison_runner(params, context, batch):
    raise RuntimeError("poison pill strikes again")


def _memory_hog_runner(params, context, batch):
    hoard = bytearray(64 * 1024 * 1024 * 1024)  # far beyond any budget
    return {"trials": len(hoard), "successes": 0, "counts": {}}


def _cpu_spin_runner(params, context, batch):
    while True:
        pass


def _third_try_runner(params, context, batch):
    """Fails twice (tracked by flag files), then succeeds."""
    root = params["dir"]
    tries = len(os.listdir(root))
    if tries < 2:
        open(os.path.join(root, f"try{tries}"), "w").close()
        raise RuntimeError(f"transient failure {tries}")
    return {"trials": batch.size, "successes": 0,
            "counts": {"masked": batch.size}}


for _kind, _runner in (("sup-ok", _ok_runner), ("sup-slow", _slow_runner),
                       ("sup-poison", _poison_runner),
                       ("sup-hog", _memory_hog_runner),
                       ("sup-spin", _cpu_spin_runner),
                       ("sup-third-try", _third_try_runner)):
    register_unit_kind(_kind, _runner, replace=True)


def quick_config(**overrides):
    defaults = dict(batch_size=4, max_batches=2, timeout_s=30.0,
                    max_retries=1, backoff_s=0.01, ci_half_width=None)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def supervisor(**overrides):
    return CampaignSupervisor(SupervisorConfig(**overrides))


class TestConfigValidation:
    def test_bad_supervisor_knobs_rejected(self):
        for overrides in ({"quarantine_after": 0},
                          {"drain_deadline_s": 0.0}):
            with pytest.raises(InjectionError):
                SupervisorConfig(**overrides)

    def test_bad_budget_knobs_rejected(self):
        for overrides in ({"max_rss_mb": 0}, {"max_cpu_s": -1.0}):
            with pytest.raises(InjectionError):
                ResourceBudget(**overrides)

    def test_coerce_supervisor_forms(self):
        assert coerce_supervisor(False) is None
        built = coerce_supervisor(None)
        assert isinstance(built, CampaignSupervisor)
        config = SupervisorConfig(quarantine_after=2)
        assert coerce_supervisor(config).config is config
        existing = CampaignSupervisor()
        assert coerce_supervisor(existing) is existing
        with pytest.raises(InjectionError):
            coerce_supervisor("yes please")


def _vmsize_mb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmSize:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    return 0


class TestResourceGovernance:
    def test_memory_hog_binned_resource_exhausted(self):
        # RLIMIT_AS caps *virtual* address space and a forked worker
        # inherits this process's mappings, so the budget must clear the
        # test runner's own footprint (which grows with whatever ran
        # earlier in the suite) — a cap below it kills the worker at
        # bootstrap, binning "hung" instead of exercising the hog
        sup = supervisor(budget=ResourceBudget(
            max_rss_mb=_vmsize_mb() + 512), quarantine_after=None)
        report = sup.run([WorkUnit("hog", "sup-hog", {})], None,
                         quick_config(max_retries=0))
        result = report.units["hog"]
        assert result.status == "resource_exhausted"
        assert result.counts["resource_exhausted"] == 1
        assert result.counts["crash"] == 0
        assert "MemoryError" in result.detail

    def test_cpu_spinner_binned_resource_exhausted(self):
        sup = supervisor(budget=ResourceBudget(max_cpu_s=1),
                         quarantine_after=None)
        report = sup.run([WorkUnit("spin", "sup-spin", {})], None,
                         quick_config(max_retries=0, timeout_s=60.0))
        result = report.units["spin"]
        assert result.status == "resource_exhausted"
        assert result.counts["resource_exhausted"] == 1
        assert "CPU budget" in result.detail or "SIGXCPU" in result.detail

    def test_healthy_worker_unaffected_by_budget(self):
        sup = supervisor(budget=ResourceBudget(
            max_rss_mb=16384, max_cpu_s=120))
        report = sup.run([WorkUnit("fine", "sup-ok", {})], None,
                         quick_config())
        assert report.units["fine"].status == "completed"
        assert report.units["fine"].trials == 8


class TestQuarantine:
    def test_poison_unit_quarantined_siblings_complete(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        units = [WorkUnit("ok1", "sup-ok", {}),
                 WorkUnit("poison", "sup-poison", {}),
                 WorkUnit("ok2", "sup-ok", {})]
        sup = supervisor(quarantine_after=3)
        report = sup.run(units, journal, quick_config())
        assert report.units["poison"].status == "quarantined"
        assert report.quarantined == ["poison"]
        assert report.completed == ["ok1", "ok2"]
        # the dead-letter record carries the captured tracebacks,
        # final one included
        failures = report.units["poison"].failures
        assert len(failures) == 3
        assert "poison pill strikes again" in failures[-1]["detail"]
        assert "RuntimeError" in failures[-1]["traceback"]
        with open(journal) as handle:
            records = [json.loads(line) for line in handle]
        dead_letters = [r for r in records
                        if r["type"] == "unit_quarantined"]
        assert len(dead_letters) == 1
        assert dead_letters[0]["unit"] == "poison"
        assert "RuntimeError" in dead_letters[0]["failures"][-1]["traceback"]

    def test_quarantined_unit_stays_dead_on_resume(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        units = [WorkUnit("poison", "sup-poison", {}),
                 WorkUnit("ok", "sup-ok", {})]
        sup = supervisor(quarantine_after=2)
        sup.run(units, journal, quick_config())
        report = sup.run(units, journal, quick_config())
        assert report.units["poison"].status == "quarantined"
        assert report.units["poison"].resumed
        assert "RuntimeError" in \
            report.units["poison"].failures[-1]["traceback"]

    def test_success_resets_failure_streak(self, tmp_path):
        flags = tmp_path / "flags"
        flags.mkdir()
        sup = supervisor(quarantine_after=3)
        report = sup.run(
            [WorkUnit("flaky", "sup-third-try", {"dir": str(flags)})],
            None, quick_config(max_retries=2, max_batches=1))
        result = report.units["flaky"]
        assert result.status == "completed"
        assert result.retries == 2
        assert len(result.failures) == 2  # both kept for forensics

    def test_unsupervised_engine_still_crashes_not_quarantines(self):
        report = CampaignEngine(quick_config()).run(
            [WorkUnit("poison", "sup-poison", {})])
        assert report.units["poison"].status == "crashed"
        assert report.quarantined == []


class TestSignalSafeDrain:
    def test_request_drain_pauses_between_units(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        sup = supervisor()
        units = [WorkUnit("u0", "sup-ok", {}), WorkUnit("u1", "sup-ok", {})]
        sup.request_drain("test says stop")
        report = sup.run(units, journal, quick_config())
        assert report.paused
        assert report.drain_reason == "test says stop"
        assert report.pending == ["u0", "u1"]
        state = JournalState.load(journal)
        assert len(state.pauses) == 1
        assert state.pauses[0]["pending"] == ["u0", "u1"]

    def test_drain_deadline_kills_in_flight_batch(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        sup = supervisor(drain_deadline_s=0.3)
        unit = WorkUnit("slow", "sup-slow", {"delay": 30.0})
        timer = threading.Timer(0.4, sup.request_drain, ("deadline test",))
        timer.start()
        started = time.monotonic()
        report = sup.run([unit], journal, quick_config(timeout_s=120.0))
        elapsed = time.monotonic() - started
        assert report.paused
        assert report.units["slow"].status == "paused"
        assert elapsed < 10.0  # did not wait out the 30s batch
        # the killed batch left no journal record: resume re-derives it
        assert JournalState.load(journal).batches.get("slow") is None

    def test_sigterm_drains_and_resume_matches_uninterrupted(self, tmp_path):
        """Acceptance: SIGTERM mid-unit + resume == uninterrupted counts."""
        config = quick_config(batch_size=5, max_batches=3, timeout_s=60.0)
        units = lambda: [WorkUnit(f"u{i}", "sup-slow",
                                  {"seed": i, "delay": 0.2})
                         for i in range(3)]
        baseline = CampaignEngine(config).run(
            units(), str(tmp_path / "baseline.jsonl"))
        assert not baseline.paused

        journal = str(tmp_path / "interrupted.jsonl")
        sup = supervisor(drain_deadline_s=10.0)
        timer = threading.Timer(
            0.5, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        interrupted = sup.run(units(), journal, config)
        assert interrupted.paused
        assert interrupted.drain_reason == "signal SIGTERM"
        assert len(JournalState.load(journal).pauses) == 1

        resumed = CampaignSupervisor().run(units(), journal, config)
        assert not resumed.paused
        assert resumed.total_counts() == baseline.total_counts()

    def test_supervisor_restores_previous_handlers(self):
        before = signal.getsignal(signal.SIGTERM)
        sup = supervisor()
        with sup:
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before


_DRIVER = """\
import json, sys, time
sys.path.insert(0, {src!r})
from repro.inject.engine import (CampaignEngine, EngineConfig, WorkUnit,
                                 register_unit_kind)
from repro.inject.supervisor import CampaignSupervisor, SupervisorConfig


def slow_runner(params, context, batch):
    time.sleep(0.2)
    return {{"trials": batch.size, "successes": 1,
             "counts": {{"due": 1, "masked": batch.size - 1}}}}


register_unit_kind("sig-slow", slow_runner, replace=True)

journal = sys.argv[1]
units = [WorkUnit(f"u{{i}}", "sig-slow", {{"seed": i}}) for i in range(3)]
config = EngineConfig(batch_size=5, max_batches=4, ci_half_width=None,
                      timeout_s=60.0)
supervisor = CampaignSupervisor(SupervisorConfig(drain_deadline_s=15.0))
print("STARTED", flush=True)
report = supervisor.run(units, journal, config)
print("PAUSED" if report.paused else "DONE",
      json.dumps(report.total_counts(), sort_keys=True), flush=True)
"""


@pytest.mark.slow
class TestSignalRobustnessEndToEnd:
    """A real process SIGTERMed mid-unit, then resumed (the CI job)."""

    def _run_driver(self, script, journal, kill_after=None):
        process = subprocess.Popen(
            [sys.executable, script, journal],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert process.stdout.readline().strip() == "STARTED"
        if kill_after is not None:
            time.sleep(kill_after)
            process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        verdict, __, counts = out.strip().partition(" ")
        return verdict, json.loads(counts)

    def test_sigterm_mid_unit_then_clean_resume(self, tmp_path):
        script = str(tmp_path / "driver.py")
        with open(script, "w") as handle:
            handle.write(_DRIVER.format(src=SRC))

        baseline_verdict, baseline = self._run_driver(
            script, str(tmp_path / "baseline.jsonl"))
        assert baseline_verdict == "DONE"

        journal = str(tmp_path / "interrupted.jsonl")
        verdict, partial = self._run_driver(script, journal,
                                            kill_after=0.7)
        assert verdict == "PAUSED"
        state = JournalState.load(journal)
        assert len(state.pauses) == 1
        assert sum(partial.values()) < sum(baseline.values())

        verdict, resumed = self._run_driver(script, journal)
        assert verdict == "DONE"
        assert resumed == baseline
