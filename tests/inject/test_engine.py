"""Tests for the resilient campaign engine: isolation, retry, resume."""

import dataclasses
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import InjectionError
from repro.inject import (OUTCOMES, CampaignEngine, CampaignSupervisor,
                          EngineConfig, SupervisorConfig, WorkUnit,
                          gate_work_unit, gpu_work_unit,
                          merged_gate_results, register_unit_kind,
                          run_full_campaign, run_unit_campaign,
                          wilson_interval)
from repro.inject import engine as engine_module
from repro.inject.engine import BatchSpec, make_scheme, unit_runner
from repro.inject.journal import Journal, JournalState


def _tally_runner(params, context, batch):
    """Deterministic batch: all trials succeed; journals invocations."""
    if params.get("tally"):
        with open(params["tally"], "a") as handle:
            handle.write(f"{params.get('tag', '?')}:{batch.index}\n")
    return {"trials": batch.size, "successes": batch.size,
            "counts": {"due": batch.size}}


def _zero_rate_runner(params, context, batch):
    """No successes — the Wilson interval tightens quickly around 0."""
    return {"trials": batch.size, "successes": 0,
            "counts": {"masked": batch.size}}


def _raise_runner(params, context, batch):
    raise RuntimeError("worker exploded")


def _hard_exit_runner(params, context, batch):
    os._exit(3)


def _hang_runner(params, context, batch):
    time.sleep(60)


def _flaky_runner(params, context, batch):
    """Fails until a flag file exists, then succeeds — a transient fault."""
    flag = params["flag"]
    if not os.path.exists(flag):
        with open(flag, "w") as handle:
            handle.write("tried\n")
        raise RuntimeError("transient failure")
    return {"trials": batch.size, "successes": batch.size,
            "counts": {"due": batch.size}}


def _drain_runner(params, context, batch):
    """Sleeps ``context["delay"]``; with ``context["sigterm"]`` it first
    sends SIGTERM to the engine, which a supervisor turns into a drain."""
    context = context or {}
    if context.get("sigterm"):
        os.kill(os.getppid(), signal.SIGTERM)
    time.sleep(context.get("delay", 0.0))
    due = batch.index % 2
    return {"trials": batch.size, "successes": due,
            "counts": {"due": due, "masked": batch.size - due}}


for _kind, _runner in (("tally", _tally_runner),
                       ("zero-rate", _zero_rate_runner),
                       ("raise", _raise_runner),
                       ("hard-exit", _hard_exit_runner),
                       ("hang", _hang_runner),
                       ("flaky", _flaky_runner),
                       ("drain-probe", _drain_runner)):
    register_unit_kind(_kind, _runner, replace=True)


def quick_config(**overrides):
    defaults = dict(batch_size=4, max_batches=2, timeout_s=20.0,
                    max_retries=1, backoff_s=0.01, ci_half_width=None)
    defaults.update(overrides)
    return EngineConfig(**defaults)


class TestWilsonInterval:
    def test_zero_trials_is_uninformative(self):
        estimate = wilson_interval(0, 0)
        assert (estimate.low, estimate.high) == (0.0, 1.0)

    def test_interval_brackets_rate_and_tightens(self):
        loose = wilson_interval(5, 10)
        tight = wilson_interval(500, 1000)
        for estimate in (loose, tight):
            assert estimate.low <= estimate.rate <= estimate.high
        assert tight.half_width < loose.half_width

    def test_extremes_stay_in_unit_interval(self):
        assert wilson_interval(0, 50).low == 0.0
        assert wilson_interval(50, 50).high == 1.0

    def test_bad_counts_rejected(self):
        with pytest.raises(InjectionError):
            wilson_interval(3, 2)
        # a non-positive z inverts or collapses the interval
        for z in (0.0, -1.96):
            with pytest.raises(InjectionError, match="z must be"):
                wilson_interval(3, 10, z)

    def test_zero_trials_estimate_fields(self):
        # A crashed-before-data unit yields the uninformative estimate,
        # not a ZeroDivisionError.
        estimate = wilson_interval(0, 0)
        assert estimate.rate == 0.0
        assert estimate.trials == 0 and estimate.successes == 0
        assert estimate.half_width == 0.5

    def test_successes_exceeding_trials_names_both(self):
        with pytest.raises(InjectionError) as excinfo:
            wilson_interval(7, 3)
        message = str(excinfo.value)
        assert "7" in message and "3" in message
        assert "cannot exceed" in message

    def test_negative_counts_rejected_distinctly(self):
        with pytest.raises(InjectionError, match="trials must be >= 0"):
            wilson_interval(0, -1)
        with pytest.raises(InjectionError, match="successes must be >= 0"):
            wilson_interval(-1, 5)


class TestBatchSeedDeterminism:
    """Resume-equivalence rests on batch seeds being pure functions."""

    def test_seed_schedule_is_pinned(self):
        from repro.inject.engine import _BATCH_SEED_STRIDE, _batch_seed
        assert _BATCH_SEED_STRIDE == 1000003
        assert [_batch_seed({"seed": 7}, index) for index in range(4)] == \
            [7, 1000010, 2000013, 3000016]
        assert _batch_seed({}, 2) == 2000006  # missing seed defaults to 0

    def test_batch_zero_reproduces_legacy_seed(self):
        from repro.inject.engine import _batch_seed
        # batch 0 must use the unit's own seed so a one-batch campaign
        # reproduces the legacy single-shot sweep exactly
        assert _batch_seed({"seed": 42}, 0) == 42

    def test_same_batch_spec_same_results(self):
        from repro.inject.engine import run_gate_batch
        batch = BatchSpec(index=1, size=12,
                          seed=1000003 + 5)  # any fixed derived seed
        params = {"unit": "fxp-add-32", "site_count": 10}
        first = run_gate_batch(params, None, batch)
        second = run_gate_batch(params, None, batch)
        assert first["counts"] == second["counts"]
        assert first["trials"] == second["trials"]
        assert first["payload"] == second["payload"]


class TestEngineConfigValidation:
    def test_bad_knobs_rejected(self):
        for overrides in ({"batch_size": 0}, {"max_batches": 0},
                          {"max_retries": -1}, {"ci_half_width": 0.0},
                          {"ci_half_width": -0.1}, {"timeout_s": 0.0},
                          {"isolation": "thread"}, {"backoff_max_s": 0.0},
                          {"backoff_s": -1.0}, {"z": 0.0}, {"z": -1.96}):
            with pytest.raises(InjectionError):
                EngineConfig(**overrides)


class TestRetryDelay:
    """Exponential backoff must saturate, and jitter must be replayable."""

    def test_backoff_is_capped(self):
        from repro.inject.engine import _retry_delay
        config = EngineConfig(backoff_s=1.0, backoff_max_s=30.0)
        # attempt 40 would be 2**39 seconds uncapped; the ceiling (plus
        # full jitter head-room) bounds every delay to backoff_max_s
        for attempts in (1, 5, 10, 40):
            assert _retry_delay(config, seed=123, attempts=attempts) <= \
                config.backoff_max_s

    def test_backoff_grows_until_the_cap(self):
        from repro.inject.engine import _retry_delay
        config = EngineConfig(backoff_s=0.1, backoff_max_s=1000.0)
        # jitter spans [0.5x, 1x), so successive exponents never overlap
        delays = [_retry_delay(config, seed=9, attempts=n)
                  for n in range(1, 5)]
        assert delays == sorted(delays)
        assert delays[-1] > delays[0] * 4

    def test_jitter_is_deterministic_per_seed_and_attempt(self):
        from repro.inject.engine import _retry_delay
        config = EngineConfig(backoff_s=1.0, backoff_max_s=30.0)
        assert _retry_delay(config, 7, 3) == _retry_delay(config, 7, 3)
        # different seeds desynchronize their retry storms
        assert _retry_delay(config, 7, 3) != _retry_delay(config, 8, 3)

    def test_jitter_stays_within_half_to_full_range(self):
        from repro.inject.engine import _retry_delay
        config = EngineConfig(backoff_s=2.0, backoff_max_s=1000.0)
        for seed in range(20):
            delay = _retry_delay(config, seed, 2)  # base 4.0
            assert 2.0 <= delay < 4.0


class TestUnitKinds:
    @pytest.mark.parametrize("kind,runner", [
        ("gate", engine_module.run_gate_batch),
        ("gpu", engine_module.run_gpu_batch),
    ])
    def test_builtin_kinds_resolve_to_their_runners(self, kind, runner):
        assert unit_runner(kind) is runner

    @pytest.mark.parametrize("kind", ["certify", "mbu-sweep"])
    def test_unknown_kind_is_refused_before_it_is_journaled(
            self, tmp_path, kind):
        # a plan naming a kind no runner serves (here, the retired
        # ones) fails loudly, naming the kinds that do run
        journal = str(tmp_path / "journal.jsonl")
        engine = CampaignEngine(quick_config(isolation="inline"))
        with pytest.raises(InjectionError, match=kind) as excinfo:
            engine.run([WorkUnit("u0", kind, {"seed": 0})], journal)
        assert "'gate'" in str(excinfo.value)
        assert "'gpu'" in str(excinfo.value)
        assert "u0" not in JournalState.load(journal).started

    def test_taken_kind_is_refused_without_replace(self):
        with pytest.raises(InjectionError, match="already registered"):
            register_unit_kind("tally", _zero_rate_runner)
        assert unit_runner("tally") is _tally_runner

    def test_replace_swaps_the_runner_for_later_runs(self, monkeypatch):
        # the e2ebench tracer wraps the built-in runners this way
        monkeypatch.setitem(engine_module._RUNNERS, "swap-probe",
                            _tally_runner)
        units = [WorkUnit("u0", "swap-probe", {"seed": 0})]
        config = quick_config(isolation="inline")
        before = CampaignEngine(config).run(units).units["u0"]
        register_unit_kind("swap-probe", _zero_rate_runner, replace=True)
        after = CampaignEngine(config).run(units).units["u0"]
        assert before.successes == before.trials == 8
        assert after.successes == 0 and after.counts["masked"] == 8


class TestCrashIsolation:
    def test_raising_worker_is_recorded_not_fatal(self, tmp_path):
        units = [WorkUnit("ok", "tally", {"seed": 0}),
                 WorkUnit("bad", "raise", {"seed": 0}),
                 WorkUnit("ok2", "tally", {"seed": 1})]
        report = CampaignEngine(quick_config()).run(
            units, str(tmp_path / "journal.jsonl"))
        assert report.units["bad"].status == "crashed"
        assert report.units["bad"].counts["crash"] == 1
        assert "worker exploded" in report.units["bad"].detail
        # the campaign degraded gracefully: both healthy units finished
        assert report.completed == ["ok", "ok2"]
        assert report.failed == ["bad"]

    def test_hard_exit_worker_is_crashed(self):
        report = CampaignEngine(quick_config(max_retries=0)).run(
            [WorkUnit("dead", "hard-exit", {})])
        assert report.units["dead"].status == "crashed"
        assert "exit code 3" in report.units["dead"].detail

    def test_hanging_worker_times_out_as_hung(self):
        config = quick_config(timeout_s=0.5, max_retries=0)
        report = CampaignEngine(config).run(
            [WorkUnit("stuck", "hang", {})])
        assert report.units["stuck"].status == "hung"
        assert report.units["stuck"].counts["hang"] == 1

    def test_transient_failure_retried_with_backoff(self, tmp_path):
        flag = str(tmp_path / "flag")
        report = CampaignEngine(quick_config(max_batches=1)).run(
            [WorkUnit("flaky", "flaky", {"flag": flag})])
        result = report.units["flaky"]
        assert result.status == "completed"
        assert result.retries == 1
        assert result.counts["due"] == 4

    def test_retries_exhausted_means_crashed(self, tmp_path):
        report = CampaignEngine(quick_config(max_retries=2)).run(
            [WorkUnit("bad", "raise", {})])
        assert report.units["bad"].status == "crashed"
        assert report.units["bad"].retries == 2


class TestJournalResume:
    def test_finished_units_skipped_on_rerun(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        tally = tmp_path / "tally.txt"
        unit_a = WorkUnit("a", "tally", {"tally": str(tally), "tag": "a"})
        engine = CampaignEngine(quick_config())
        engine.run([unit_a], journal)
        first = tally.read_text()
        assert first.count("a:") == 2  # two batches ran

        # Re-invoking with the same journal completes the campaign
        # without re-running finished work units.
        unit_b = WorkUnit("b", "tally", {"tally": str(tally), "tag": "b"})
        report = engine.run([unit_a, unit_b], journal)
        second = tally.read_text()
        assert second.count("a:") == 2  # unit a did not re-run
        assert second.count("b:") == 2  # unit b ran fresh
        assert report.units["a"].resumed
        assert not report.units["b"].resumed
        assert report.units["a"].trials == 8

    def test_interrupted_unit_resumes_after_last_batch(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        tally = tmp_path / "tally.txt"
        unit = WorkUnit("u", "tally", {"tally": str(tally), "tag": "u"})
        config = quick_config(max_batches=3)
        # Simulate a campaign killed mid-unit: journal holds the start
        # record and the first batch, but no terminal record.
        with open(journal, "w") as handle:
            for record in (
                    {"type": "campaign", "version": 1},
                    {"type": "unit_started", "unit": "u", "kind": "tally",
                     "params": unit.params},
                    {"type": "batch", "unit": "u", "index": 0, "trials": 4,
                     "successes": 4, "counts": {"due": 4}, "attempts": 1}):
                handle.write(json.dumps(record) + "\n")
        report = CampaignEngine(config).run([unit], journal)
        result = report.units["u"]
        assert result.status == "completed"
        assert result.resumed
        assert result.batches == 3
        assert result.trials == 12
        # only the two missing batches actually executed
        assert tally.read_text() == "u:1\nu:2\n"

    def test_crashed_unit_outcome_survives_resume(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        units = [WorkUnit("ok", "tally", {}), WorkUnit("bad", "raise", {})]
        engine = CampaignEngine(quick_config(max_retries=0))
        first = engine.run(units, journal).units["bad"]
        report = engine.run(units, journal)
        assert report.units["bad"].resumed
        assert report.units["bad"].status == "crashed"
        assert report.units["bad"].counts["crash"] == 1
        assert report.completed == ["ok"]
        # the failure log rides in unit_done and survives the resume
        assert report.units["bad"].failures == first.failures
        assert "worker exploded" in first.failures[-1]["detail"]

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        unit = WorkUnit("a", "tally", {})
        engine = CampaignEngine(quick_config())
        engine.run([unit], journal)
        with open(journal, "a") as handle:
            handle.write('{"type": "batch", "unit": "a", "ind')  # torn
        report = engine.run([unit], journal)
        assert report.units["a"].resumed

    def test_param_mismatch_rejected(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        engine = CampaignEngine(quick_config())
        engine.run([WorkUnit("a", "tally", {"seed": 0})], journal)
        with pytest.raises(InjectionError):
            engine.run([WorkUnit("a", "tally", {"seed": 9})], journal)

    def test_duplicate_unit_ids_rejected(self):
        engine = CampaignEngine(quick_config())
        with pytest.raises(InjectionError):
            engine.run([WorkUnit("a", "tally", {}),
                        WorkUnit("a", "tally", {})])

    def test_statistical_config_change_rejected(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        CampaignEngine(quick_config(max_batches=3)).run(
            [WorkUnit("a", "tally", {})], journal)
        with pytest.raises(InjectionError, match="max_batches"):
            CampaignEngine(quick_config(max_batches=2)).run(
                [WorkUnit("a", "tally", {})], journal)

    def test_operational_config_change_allowed(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        CampaignEngine(quick_config(timeout_s=20.0)).run(
            [WorkUnit("a", "tally", {})], journal)
        report = CampaignEngine(quick_config(timeout_s=5.0,
                                             max_retries=0)).run(
            [WorkUnit("a", "tally", {})], journal)
        assert report.units["a"].resumed

    def test_config_record_with_a_retired_knob_still_resumes(
            self, tmp_path):
        # journals from before retry_on_hang was retired still carry it
        # in their config record; resume compares statistical knobs only
        journal = str(tmp_path / "journal.jsonl")
        config = quick_config(max_batches=3)
        unit = WorkUnit("u", "tally", {})
        with Journal(journal) as writer:
            writer.append({"type": "config", "config": dict(
                config.to_dict(), retry_on_hang=False)})
            writer.unit_started("u", "tally", unit.params)
            writer.batch("u", 0, trials=4, successes=4,
                         counts={"due": 4}, attempts=1)
        report = CampaignEngine(config).run([unit], journal)
        result = report.units["u"]
        assert result.status == "completed" and result.resumed
        assert (result.batches, result.trials) == (3, 12)


class TestEarlyStopping:
    def test_sweep_ends_once_interval_is_tight(self):
        config = EngineConfig(batch_size=50, max_batches=10,
                              ci_half_width=0.05, min_trials=100,
                              timeout_s=20.0)
        report = CampaignEngine(config).run(
            [WorkUnit("fast", "zero-rate", {})])
        result = report.units["fast"]
        assert result.stopped_early
        assert result.batches == 2  # min_trials gate, then tight enough
        assert result.estimate.half_width <= 0.05

    def test_no_early_stop_without_bound(self):
        report = CampaignEngine(quick_config()).run(
            [WorkUnit("full", "zero-rate", {})])
        assert not report.units["full"].stopped_early
        assert report.units["full"].batches == 2


class TestGateUnits:
    def test_single_batch_matches_legacy_campaign(self, tmp_path):
        legacy = run_unit_campaign("fxp-add-32", sample_count=30,
                                   site_count=40, seed=5)
        config = EngineConfig(batch_size=30, max_batches=1,
                              ci_half_width=None, timeout_s=60.0)
        report = CampaignEngine(config).run(
            [gate_work_unit("fxp-add-32", site_count=40, seed=5)],
            str(tmp_path / "journal.jsonl"))
        merged = merged_gate_results(report)["fxp-add-32"]
        assert merged.sample_count == legacy.sample_count
        assert [r.site for r in merged.records] == \
            [r.site for r in legacy.records]
        assert merged.unmasked_site_counts == legacy.unmasked_site_counts

    def test_scheme_monitors_detection_rate(self, tmp_path):
        config = EngineConfig(batch_size=25, max_batches=2,
                              ci_half_width=None, timeout_s=60.0)
        report = CampaignEngine(config).run(
            [gate_work_unit("fxp-add-32", site_count=40, seed=5,
                            scheme="mod3")])
        result = report.units["fxp-add-32"]
        counts = result.counts
        assert result.trials == counts["due"] + counts["sdc"]
        assert result.successes == counts["due"]
        assert counts["due"] > 0  # mod3 catches most patterns

    def test_make_scheme_specs(self):
        assert make_scheme("mod7").code.check_bits == 3
        with pytest.raises(InjectionError):
            make_scheme("modseven")
        with pytest.raises(InjectionError):
            make_scheme("hamming-zop")


class TestGpuUnits:
    def test_fault_plan_sweep_over_kernel(self, tmp_path):
        config = EngineConfig(batch_size=6, max_batches=1,
                              ci_half_width=None, timeout_s=120.0)
        unit = gpu_work_unit("pathfinder", "swap-ecc", scale=0.2, seed=7)
        report = CampaignEngine(config).run(
            [unit], str(tmp_path / "journal.jsonl"))
        result = report.units["pathfinder/swap-ecc"]
        assert result.status == "completed"
        total = sum(result.counts[name] for name in OUTCOMES) \
            + result.counts["not_hit"]
        assert total == 6
        # swap-ecc leaves no silent corruption
        assert result.counts["sdc"] == 0

    def test_step_exhaustion_binned_as_hang_not_crash(self):
        # A 10-step budget makes every trial livelock by fiat; the
        # watchdog verdict must land in "hang", never generic "crash".
        config = EngineConfig(batch_size=4, max_batches=1,
                              ci_half_width=None, timeout_s=120.0,
                              isolation="inline")
        unit = WorkUnit("tiny-budget", "gpu",
                        params={"workload": "pathfinder", "scale": 0.2,
                                "seed": 1, "max_steps": 10})
        report = CampaignEngine(config).run([unit])
        result = report.units["tiny-budget"]
        assert result.counts["hang"] == 4
        assert result.counts["crash"] == 0

    def test_failed_batch_reruns_from_its_journal(self, tmp_path):
        """A batch that raised a typed error crashes its unit, and the
        journal alone reruns that batch to the same error record."""
        journal = str(tmp_path / "journal.jsonl")
        unit = gpu_work_unit("pathfinder", scale=0.2, code="bogus")
        config = EngineConfig(batch_size=4, max_batches=2, max_retries=0)
        report = CampaignEngine(config).run([unit], journal)
        assert report.units[unit.unit_id].status == "crashed"

        state = JournalState.load(journal)
        entry = state.finished[unit.unit_id]["failures"][-1]
        assert entry["error"]["code"] == InjectionError.code
        started = state.started[unit.unit_id]
        batch = BatchSpec(entry["batch"], state.config["batch_size"],
                          entry["seed"])
        with pytest.raises(InjectionError) as info:
            unit_runner(started["kind"])(started["params"], None, batch)
        assert info.value.to_record() == entry["error"]


def storage_sweep(code, tensor):
    config = EngineConfig(batch_size=12, max_batches=1, ci_half_width=None,
                          timeout_s=240.0, isolation="inline")
    unit = gpu_work_unit("pathfinder", scale=0.2, seed=42, code=code,
                         where="storage", tensor=tensor)
    return CampaignEngine(config).run([unit]).units[unit.unit_id]


class TestGpuStorageStrikes:
    @pytest.mark.parametrize("tensor", [True, False])
    @pytest.mark.parametrize("code", ["secded-dp", "sec-dp"])
    def test_correcting_codes_fix_every_strike_in_place(self, code,
                                                        tensor):
        result = storage_sweep(code, tensor)
        assert result.status == "completed"
        assert result.trials > 0
        assert result.counts["corrected_in_place"] == result.trials
        assert result.counts["masked"] == result.trials
        assert result.counts["due"] == result.counts["sdc"] == 0

    @pytest.mark.parametrize("tensor", [True, False])
    @pytest.mark.parametrize("code", ["parity", "mod3"])
    def test_detect_only_codes_due_every_strike(self, code, tensor):
        result = storage_sweep(code, tensor)
        assert result.trials > 0
        assert result.counts["due"] == result.successes == result.trials
        assert result.counts["corrected_in_place"] == 0
        assert result.counts["sdc"] == 0


class TestCountKeys:
    @pytest.mark.parametrize("unit", [
        gate_work_unit("fxp-add-32", site_count=40, seed=5),
        gpu_work_unit("pathfinder", scale=0.2, seed=7),
    ], ids=["gate", "gpu"])
    def test_retired_keys_stay_at_zero(self, unit):
        # The pinned campaign digests hash every key of a unit's counts,
        # so no runner may drop a key, not even one nothing sets.
        config = EngineConfig(batch_size=6, max_batches=1,
                              ci_half_width=None, timeout_s=120.0,
                              isolation="inline")
        counts = CampaignEngine(config).run([unit]).units[
            unit.unit_id].counts
        assert set(counts) == set(OUTCOMES) | set(
            engine_module.EXTRA_OUTCOMES)
        for key in ("recovered", "cta_replayed", "kernel_replayed"):
            assert counts[key] == 0


def tally(outcome, events=(), fired=True, verified=None):
    """Bin one trial; returns (counts without zeros, increment, verified).

    ``verified`` is what the memory check returns, or None when the bin
    must be decided without reading memory.
    """
    from repro.gpu import ResilienceState

    state = ResilienceState()
    for kind in events:
        state.record(kind, 0, 0, 0)
    state.fault_fired = fired
    calls = []

    def verify():
        assert verified is not None, "memory read for a decided bin"
        calls.append(True)
        return verified

    counts = engine_module._empty_counts()
    increment = engine_module._tally_gpu_outcome(counts, state, outcome,
                                                 verify)
    return ({key: value for key, value in counts.items() if value},
            increment, bool(calls))


#: (outcome, events, fault fired, memory check, bins, increment) per bin
TALLY_CASES = {
    "hang": ("hang", (), True, None, {"hang": 1}, (1, 1)),
    "crash": ("crash", (), True, None, {"crash": 1}, (1, 1)),
    "due": ("ok", ("due",), True, None, {"due": 1}, (1, 1)),
    "trap-over-due": ("ok", ("due", "trap"), True, None, {"trap": 1},
                      (1, 1)),
    "due-over-corrected": ("ok", ("corrected", "due"), True, None,
                           {"due": 1}, (1, 1)),
    "not-hit": ("ok", (), False, None, {"not_hit": 1}, (0, 0)),
    "masked": ("ok", (), True, True, {"masked": 1}, (1, 0)),
    "corrected-in-place": ("ok", ("corrected",), True, True,
                           {"masked": 1, "corrected_in_place": 1}, (1, 0)),
    "sdc": ("ok", (), True, False, {"sdc": 1}, (1, 0)),
    "corrected-but-wrong": ("ok", ("corrected",), True, False, {"sdc": 1},
                            (1, 0)),
}


class TestTallyGpuOutcome:
    @pytest.mark.parametrize(
        "outcome,events,fired,verified,bins,increment",
        list(TALLY_CASES.values()), ids=list(TALLY_CASES))
    def test_bins(self, outcome, events, fired, verified, bins, increment):
        got_bins, got_increment, read_memory = tally(outcome, events, fired,
                                                     verified)
        assert got_bins == bins
        assert got_increment == increment
        assert read_memory == (verified is not None)


class TestJournalFsyncPlumbing:
    def test_engine_config_fsync_reaches_journal(self, tmp_path,
                                                 monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        config = quick_config(isolation="inline", journal_fsync=True)
        CampaignEngine(config).run([WorkUnit("a", "tally", {})],
                                   str(tmp_path / "journal.jsonl"))
        assert synced

    def test_run_full_campaign_plumbs_fsync(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        results = run_full_campaign(
            sample_count=8, site_count=6, units=("fxp-add-32",),
            journal_path=str(tmp_path / "journal.jsonl"),
            journal_fsync=True,
            engine_config=quick_config(isolation="inline", batch_size=8,
                                       max_batches=1))
        assert "fxp-add-32" in results
        assert synced


class TestInlineIsolation:
    def test_inline_mode_runs_and_catches_errors(self):
        config = quick_config(isolation="inline")
        report = CampaignEngine(config).run(
            [WorkUnit("ok", "tally", {}), WorkUnit("bad", "raise", {})])
        assert report.units["ok"].status == "completed"
        assert report.units["bad"].status == "crashed"


@pytest.mark.slow
class TestBenchmarkScale:
    def test_six_unit_campaign_with_early_stopping(self, tmp_path):
        config = EngineConfig(batch_size=100, max_batches=10,
                              ci_half_width=0.03, min_trials=200,
                              timeout_s=600.0)
        units = [gate_work_unit(name, site_count=100, seed=index,
                                scheme="mod3")
                 for index, name in enumerate(
                     ("fxp-add-32", "fxp-mad-32", "fp-add-32"))]
        report = CampaignEngine(config).run(
            units, str(tmp_path / "journal.jsonl"))
        assert not report.failed
        for result in report.units.values():
            assert result.estimate.half_width <= 0.03 or \
                result.batches == 10


class TestSalvagedRecordsSurface:
    def test_salvage_count_reaches_campaign_report(self, tmp_path):
        """A corrupt journal resumed with salvage=True reports exactly
        how many journal records the truncation cost."""
        journal = str(tmp_path / "journal.jsonl")
        unit = WorkUnit("u", "tally", {})
        with open(journal, "w") as handle:
            for record in (
                    {"type": "campaign", "version": 1},
                    {"type": "unit_started", "unit": "u", "kind": "tally",
                     "params": unit.params},
                    {"type": "batch", "unit": "u", "index": 0, "trials": 4,
                     "successes": 4, "counts": {"due": 4}, "attempts": 1}):
                handle.write(json.dumps(record) + "\n")
            handle.write("<<not json>>\n")
            handle.write(json.dumps(
                {"type": "batch", "unit": "u", "index": 1, "trials": 4,
                 "successes": 4, "counts": {"due": 4},
                 "attempts": 1}) + "\n")
        report = CampaignEngine(quick_config(
            max_batches=3, salvage=True)).run([unit], journal)
        # the garbage line and the batch after it were both dropped
        assert report.salvaged_records == 2
        assert len(report.salvage_events) == 1
        assert report.salvage_events[0]["last_good_rix"] == 2
        # the dropped batch was re-derived, not lost
        assert report.units["u"].status == "completed"
        assert report.units["u"].trials == 12

    def test_clean_run_reports_zero_salvaged(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        report = CampaignEngine(quick_config()).run(
            [WorkUnit("u", "tally", {})], journal)
        assert report.salvaged_records == 0
        assert report.salvage_events == []


# ---------------------------------------------------------------------------
# the scheduler: one batch worker in flight per CPU


def _cpus(monkeypatch, count):
    """Make the engine see ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def _stamping(runner):
    """``runner`` stamping each attempt, after a first-batch delay.

    Batch 0 first sleeps ``context["delay"]``.  Every attempt, also one
    that raises, writes ``[unit, batch, start, end]`` on the monotonic
    clock (one clock for every process) to a file of its own under
    ``context["stamps"]``.
    """
    def stamped(params, context, batch):
        start = time.monotonic()
        try:
            if batch.index == 0:
                time.sleep(context["delay"])
            return runner(params, context, batch)
        finally:
            name = f"{os.getpid()}-{time.monotonic_ns()}.json"
            with open(os.path.join(context["stamps"], name), "w") as handle:
                json.dump([context["unit"], batch.index, start,
                           time.monotonic()], handle)
    return stamped


def _stamp_runners(monkeypatch, *kinds):
    for kind in kinds:
        monkeypatch.setitem(engine_module._RUNNERS, kind,
                            _stamping(engine_module._RUNNERS[kind]))


def _with_stamps(units, stamps, delays=None):
    """``units`` whose context names the stamp directory and a delay."""
    stamps.mkdir(exist_ok=True)
    return [dataclasses.replace(unit, context={
        "stamps": str(stamps), "unit": unit.unit_id,
        "delay": (delays or {}).get(unit.unit_id, 0.0)}) for unit in units]


def _read_stamps(stamps):
    found = []
    for name in sorted(os.listdir(stamps)):
        with open(os.path.join(stamps, name)) as handle:
            found.append(json.load(handle))
    return found


def _overlapped(stamps) -> bool:
    """Whether any two stamped attempts ran at the same time."""
    runs = sorted((start, end) for _, _, start, end in _read_stamps(stamps))
    return any(later[0] < earlier[1]
               for earlier, later in zip(runs, runs[1:]))


def _mixed_units():
    """Gate and GPU units; saxpy runs all 3 batches, the rest stop early."""
    return [gate_work_unit("fxp-add-32", site_count=12, seed=1,
                           scheme="mod3"),
            gpu_work_unit("saxpy", scale=0.25, seed=2),
            gate_work_unit("fp-add-32", site_count=12, seed=3),
            gpu_work_unit("gaussian", scale=0.25, seed=4)]


def _mixed_config():
    return EngineConfig(batch_size=24, max_batches=3, ci_half_width=0.1,
                        min_trials=20, timeout_s=120.0)


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def one_slot_mixed(tmp_path_factory):
    """The mixed campaign's journal bytes and report on one CPU."""
    journal = str(tmp_path_factory.mktemp("one-slot") / "journal.jsonl")
    with pytest.MonkeyPatch.context() as patch:
        _cpus(patch, 1)
        report = CampaignEngine(_mixed_config()).run(_mixed_units(),
                                                     journal)
    return _read_bytes(journal), report


class TestScheduler:
    """``CampaignEngine`` keeps one batch worker in flight per CPU."""

    def test_n_slots_journal_and_report_match_one_slot(
            self, one_slot_mixed, tmp_path, monkeypatch):
        one_journal, one_report = one_slot_mixed
        _cpus(monkeypatch, 2)
        _stamp_runners(monkeypatch, "gate", "gpu")
        units = _mixed_units()
        journal = str(tmp_path / "journal.jsonl")
        report = CampaignEngine(_mixed_config()).run(
            _with_stamps(units, tmp_path / "stamps",
                         {unit.unit_id: 0.1 for unit in units}), journal)
        assert _read_bytes(journal) == one_journal
        assert report.units == one_report.units
        assert list(report.units) == [unit.unit_id for unit in units]
        assert report.units["saxpy/swap-ecc"].batches == 3
        assert report.units["fp-add-32"].stopped_early
        assert report.units["fp-add-32"].batches == 1
        assert _overlapped(tmp_path / "stamps")
        assert multiprocessing.active_children() == []

    def test_units_finishing_last_first_journal_in_campaign_order(
            self, one_slot_mixed, tmp_path, monkeypatch):
        one_journal, one_report = one_slot_mixed
        units = _mixed_units()
        _cpus(monkeypatch, len(units))
        _stamp_runners(monkeypatch, "gate", "gpu")
        # each unit starts on its own CPU, and earlier units sleep longer
        delays = {unit.unit_id: 0.4 * (len(units) - position)
                  for position, unit in enumerate(units)}
        journal = str(tmp_path / "journal.jsonl")
        report = CampaignEngine(_mixed_config()).run(
            _with_stamps(units, tmp_path / "stamps", delays), journal)
        finished = {}
        for unit, _, _, end in _read_stamps(tmp_path / "stamps"):
            finished[unit] = max(finished.get(unit, 0.0), end)
        assert sorted(finished, key=finished.get) == \
            [unit.unit_id for unit in reversed(units)]
        assert _read_bytes(journal) == one_journal
        assert report.units == one_report.units
        assert multiprocessing.active_children() == []

    def test_failures_under_n_slots_match_one_slot(self, tmp_path,
                                                   monkeypatch):
        _stamp_runners(monkeypatch, "tally", "flaky")
        # a 1-2 s backoff before each retry; the hang times out at 0.5 s
        config = quick_config(timeout_s=0.5, backoff_s=2.0,
                              backoff_max_s=2.0)

        def campaign(cpus):
            _cpus(monkeypatch, cpus)
            root = tmp_path / f"cpus{cpus}"
            root.mkdir()
            units = [WorkUnit("h0", "tally", {}),
                     WorkUnit("raise", "raise", {}),
                     WorkUnit("h1", "tally", {"seed": 1}),
                     WorkUnit("exit3", "hard-exit", {}),
                     WorkUnit("hang", "hang", {}),
                     WorkUnit("flaky", "flaky",
                              {"flag": str(root / "flag")}),
                     WorkUnit("h2", "tally", {"seed": 2}),
                     WorkUnit("h3", "tally", {"seed": 3})]
            report = CampaignEngine(config).run(
                _with_stamps(units, root / "stamps"))
            return report, _read_stamps(root / "stamps")

        def outcomes(report):
            return {unit_id: (unit.status, unit.counts, unit.retries)
                    for unit_id, unit in report.units.items()}

        one, _ = campaign(1)
        many, stamps = campaign(2)
        assert outcomes(many) == outcomes(one)
        assert {unit_id: status for unit_id, (status, _, _)
                in outcomes(many).items()} == {
            "h0": "completed", "raise": "crashed", "h1": "completed",
            "exit3": "crashed", "hang": "hung", "flaky": "completed",
            "h2": "completed", "h3": "completed"}
        assert many.units["flaky"].retries == 1
        assert "exit code 3" in many.units["exit3"].detail
        flaky = sorted((start, end) for unit, index, start, end in stamps
                       if (unit, index) == ("flaky", 0))
        failed_at, retried_at = flaky[0][1], flaky[1][0]
        assert retried_at - failed_at >= 0.9
        inside = [(unit, index) for unit, index, start, end in stamps
                  if unit in ("h2", "h3")
                  and failed_at < start and end < retried_at]
        assert inside
        assert multiprocessing.active_children() == []

    def test_drain_with_records_held_resumes_to_uninterrupted_run(
            self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 2)
        config = quick_config(timeout_s=30.0)

        def units(contexts):
            return [WorkUnit(f"u{index}", "drain-probe", {"seed": index},
                             context=contexts.get(index))
                    for index in range(4)]

        def batches(path):
            return {unit: [{key: value for key, value in record.items()
                            if key != "rix"} for record in records]
                    for unit, records in JournalState.load(path)
                    .batches.items()}

        baseline_path = str(tmp_path / "baseline.jsonl")
        baseline = CampaignEngine(config).run(units({}), baseline_path)
        journal = str(tmp_path / "journal.jsonl")
        supervisor = CampaignSupervisor(
            SupervisorConfig(drain_deadline_s=20.0))
        # u0's first batch outlasts u1's whole sweep, whose records are
        # then held; u2's first batch drains the engine
        interrupted = supervisor.run(
            units({0: {"delay": 1.0}, 2: {"sigterm": True}}), journal,
            config)
        assert interrupted.paused
        assert interrupted.drain_reason == "signal SIGTERM"
        assert list(interrupted.units) == ["u0"]
        assert interrupted.units["u0"].status == "paused"
        assert interrupted.pending == ["u1", "u2", "u3"]
        state = JournalState.load(journal)
        assert [(pause["in_flight"], pause["pending"])
                for pause in state.pauses] == [("u0", ["u1", "u2", "u3"])]
        assert list(state.started) == ["u0"]
        assert [record["index"] for record in state.batches["u0"]] == [0]

        resumed = CampaignEngine(config).run(units({}), journal)
        assert not resumed.paused
        assert resumed.total_counts() == baseline.total_counts()
        assert batches(journal) == batches(baseline_path)
        assert multiprocessing.active_children() == []

    def test_second_live_thread_runs_one_batch_at_a_time(self, tmp_path,
                                                         monkeypatch):
        _cpus(monkeypatch, 2)
        _stamp_runners(monkeypatch, "tally")
        units = [WorkUnit(f"t{index}", "tally", {"seed": index})
                 for index in range(3)]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(30.0,))
        thread.start()
        try:
            report = CampaignEngine(quick_config()).run(_with_stamps(
                units, tmp_path / "stamps",
                {unit.unit_id: 0.1 for unit in units}))
        finally:
            stop.set()
            thread.join(10.0)
        assert report.completed == ["t0", "t1", "t2"]
        assert len(_read_stamps(tmp_path / "stamps")) == 6
        assert not _overlapped(tmp_path / "stamps")
        assert multiprocessing.active_children() == []

    def test_parent_side_errors_leave_no_child(self, tmp_path,
                                               monkeypatch):
        _cpus(monkeypatch, 2)
        _stamp_runners(monkeypatch, "tally")
        # b's first batch is still running when the engine raises
        units = _with_stamps(
            [WorkUnit("a", "tally", {}), WorkUnit("b", "tally", {"seed": 1})],
            tmp_path / "stamps", {"b": 30.0})
        started = time.monotonic()
        with pytest.raises(InjectionError, match="unknown unit kind"):
            CampaignEngine(quick_config()).run(
                units + [WorkUnit("c", "no-such-kind", {})])
        assert multiprocessing.active_children() == []

        real_append = Journal.append

        def interrupted_append(journal, record):
            if record["type"] == "batch":
                raise KeyboardInterrupt
            real_append(journal, record)

        monkeypatch.setattr(Journal, "append", interrupted_append)
        with pytest.raises(KeyboardInterrupt):
            CampaignEngine(quick_config()).run(
                units, str(tmp_path / "journal.jsonl"))
        assert time.monotonic() - started < 20.0
        assert multiprocessing.active_children() == []
