"""Batched == scalar contract tests for the trial-batched executor.

:mod:`repro.gpu.tensor` promises *exact* per-trial equivalence with the
scalar simulator: identical outcome bins, identical fault firing and
detection events, identical memory images — or an explicit ``fallback``
label that sends the trial back to the scalar path.  These tests pin
that contract over random fault plans (seeded via ``REPRO_STRESS_SEED``
so CI can fan the matrix out), the per-trial watchdog, the fallback
trigger, and the engine-level count equality of ``tensor=True`` vs.
``tensor=False``.
"""

import dataclasses
import hashlib
import json
import os
import random

import numpy as np
import pytest

from repro.compiler import compile_for_scheme, resilience_mode
from repro.errors import HangError, SimulationError
from repro.gpu import LaunchConfig, assemble, run_functional
from repro.gpu.memory import MemorySpace
from repro.gpu.resilience import FaultPlan, ResilienceState
from repro.gpu.tensor import (TRIAL_CRASH, TRIAL_FALLBACK, TRIAL_HALT,
                              TRIAL_HANG, TRIAL_OK, _IndexedWords,
                              run_trials)
from repro.gpu.watchdog import Watchdog, WatchdogConfig
from repro.inject.engine import (BatchSpec, _run_trials_scalar,
                                 _run_trials_tensor, _state_factory,
                                 make_scheme, run_gpu_batch)
from repro.workloads import get_workload

STRESS_SEED = int(os.environ.get("REPRO_STRESS_SEED", "0"))


def scalar_reference(kernel, launch, image_words, state, max_steps):
    """The oracle: one scalar run, mapped onto the batched outcome bins.

    Returns ``(outcome, memory, steps)``; ``steps`` is what the run's
    watchdog counted, the scalar twin of ``TrialRunResult.steps``.
    """
    memory = MemorySpace(len(image_words))
    memory.words[:] = image_words
    watchdog = Watchdog(WatchdogConfig(max_steps=max_steps))
    try:
        run_functional(kernel, launch, memory, state, watchdog=watchdog)
    except HangError:
        return TRIAL_HANG, memory, watchdog.steps
    except SimulationError:
        return TRIAL_CRASH, memory, watchdog.steps
    outcome = TRIAL_HALT if state.detected else TRIAL_OK
    return outcome, memory, watchdog.steps


def event_keys(state):
    return [(event.kind, event.cta_index, event.warp_index, event.pc,
             event.detail) for event in state.events]


def random_plans(rng, launch, count, occurrence_max=40, where="result",
                 multi=False):
    """Random fault plans mirroring the engine's draw shape."""
    lane_count = min(32, launch.threads_per_cta)
    plans = []
    for _ in range(count):
        bits = (rng.randrange(32),)
        lanes = (rng.randrange(lane_count),)
        if multi and rng.random() < 0.7:
            bits = tuple(sorted(rng.sample(range(32),
                                           rng.randrange(2, 6))))
            lanes = tuple(sorted(rng.sample(range(lane_count),
                                            rng.randrange(1, 4))))
        plans.append(FaultPlan(
            cta_index=rng.randrange(launch.grid_ctas),
            warp_index=rng.randrange(launch.warps_per_cta),
            occurrence=rng.randrange(occurrence_max),
            lane=lanes[0], bit=bits[0], bits=bits, lanes=lanes,
            where=where))
    return plans


def assert_batched_matches_scalar(workload, scheme, plans, scale=0.25,
                                  max_steps=100_000):
    """Every non-fallback trial must match its scalar rerun exactly.

    The step cap is over 7x the longest fault-free run among ``CASES``
    (lavamd swap-ecc, 13,650 steps), so a livelocked trial bins as a
    hang in both executors instead of running unbounded.
    """
    instance = get_workload(workload).build(scale=scale, seed=11)
    compiled = compile_for_scheme(instance.kernel, instance.launch, scheme)
    launch = compiled.adjust_launch(instance.launch)
    mode = resilience_mode(scheme)
    codec = make_scheme("secded-dp") if mode == "swap" else None

    def state_of(plan):
        return ResilienceState(mode=mode, scheme=codec, fault=plan)

    result = run_trials(compiled.kernel, launch, instance.memory.words,
                        [state_of(plan) for plan in plans],
                        max_steps=max_steps)
    compared = 0
    for index, plan in enumerate(plans):
        outcome = result.outcomes[index]
        if outcome == TRIAL_FALLBACK:
            continue  # no claim made; the engine reruns these scalar
        reference = state_of(plan)
        want, memory, steps = scalar_reference(
            compiled.kernel, launch, instance.memory.words, reference,
            max_steps)
        context = (STRESS_SEED, workload, scheme, index, plan)
        assert outcome == want, context
        assert result.steps[index] == steps, context
        state = result.states[index]
        assert state.fault_fired == reference.fault_fired, context
        assert event_keys(state) == event_keys(reference), context
        assert np.array_equal(result.memory.image_of(index),
                              memory.words), context
        compared += 1
    assert compared > 0, (workload, scheme, "every trial fell back")


CASES = [
    ("saxpy", "swap-ecc"),     # straight-line fp32
    ("saxpy", "baseline"),     # unprotected: SDC visible in memory
    ("fxp-stream", "swdup"),   # integer loop under duplication traps
    ("gaussian", "swap-ecc"),  # fp32 elimination, divergent guards
    ("btree", "swap-ecc"),     # integer traversal, data-dependent paths
    ("bfs", "swdup"),          # heavy divergence + atomics
    ("snap", "swap-ecc"),      # shuffles, shared memory, barriers
    ("lavamd", "swap-ecc"),    # fp64-heavy (64-bit register pairs)
]


class TestScalarEquivalence:
    @pytest.mark.parametrize("workload,scheme", CASES)
    def test_random_single_bit_plans(self, workload, scheme):
        rng = random.Random(f"{STRESS_SEED}/{workload}/{scheme}")
        instance = get_workload(workload).build(scale=0.25, seed=11)
        plans = random_plans(rng, instance.launch, 6)
        assert_batched_matches_scalar(workload, scheme, plans)

    @pytest.mark.parametrize("workload,scheme,occurrence_max", [
        ("gaussian", "swdup", 4),  # several trials fork on one step
        ("snap", "swap-ecc", 4),   # forks reuse blocks freed by halts
        ("bfs", "swdup", 40),      # forks whose strike lane is inactive
    ])
    def test_dense_plans(self, workload, scheme, occurrence_max):
        rng = random.Random(f"{STRESS_SEED}/dense/{workload}/{scheme}")
        instance = get_workload(workload).build(scale=0.25, seed=11)
        plans = random_plans(rng, instance.launch, 48,
                             occurrence_max=occurrence_max)
        assert_batched_matches_scalar(workload, scheme, plans)

    @pytest.mark.parametrize("where", ["result", "storage", "predictor"])
    def test_fault_sites(self, where):
        rng = random.Random(f"{STRESS_SEED}/site/{where}")
        instance = get_workload("btree").build(scale=0.25, seed=11)
        plans = random_plans(rng, instance.launch, 6, where=where)
        assert_batched_matches_scalar("btree", "swap-ecc", plans)

    @pytest.mark.parametrize("workload", ["gaussian", "btree"])
    def test_multi_bit_multi_lane_plans(self, workload):
        rng = random.Random(f"{STRESS_SEED}/mbu/{workload}")
        instance = get_workload(workload).build(scale=0.25, seed=11)
        plans = random_plans(rng, instance.launch, 6, where="storage",
                             multi=True)
        assert_batched_matches_scalar(workload, "swap-ecc", plans)

    def test_unstruck_trials_match_clean_run(self):
        # A batch of no-fault trials must reproduce the clean scalar
        # image bit-for-bit in every trial slot.
        instance = get_workload("fxp-stream").build(scale=0.25, seed=11)
        states = [ResilienceState() for _ in range(5)]
        result = run_trials(instance.kernel, instance.launch,
                            instance.memory.words, states)
        assert result.outcomes == [TRIAL_OK] * 5
        for index in range(5):
            assert instance.verify(result.memory.space_of(index))


# A strike on the MOV (the second datapath op, after the S2R) seeds R1
# with a large value, sending only the struck trial around a long
# countdown loop.
COUNTDOWN = """
    S2R R0, SR_TID
    MOV R1, 0
loop:
    ISETP.NE P0, R1, 0
@P0 IADD R1, R1, -1
@P0 BRA loop
    STG [R0], R1
    EXIT
"""

# A strike on the MOV flips every lane's guard, so the whole struck
# warp skips the barrier other trials arrive at: cross-trial divergent
# arrival, the designed fallback trigger.
SKIPPED_BARRIER = """
    S2R R0, SR_TID
    MOV R1, 0
    ISETP.NE P0, R1, 0
@P0 BRA skip, reconv=join
    BAR
skip:
join:
    STG [R0], R1
    EXIT
"""


# Under swap-ecc the IADD gains a shadow at pc 3, so the STG sits at pc 5
# and the EXIT at pc 6.
READ_AFTER_STRIKE = """
    S2R R0, SR_TID
    MOV R1, 7
    IADD R2, R1, 1
    NOP
    STG [R0], R2
    EXIT
"""


class TestEventPcs:
    """A DUE logs the pc of the instruction whose read decoded it."""

    @pytest.mark.parametrize("occurrence,pc", [
        (0, 5),  # S2R's R0 decodes at the STG address read
        (1, 2),  # MOV's R1 decodes at the IADD
        (2, 5),  # the IADD original's R2 decodes at the STG
        (3, 5),  # the shadow's check bits decode at the STG
    ])
    def test_due_pc_is_the_reading_instruction(self, occurrence, pc):
        launch = LaunchConfig(1, 32)
        compiled = compile_for_scheme(
            assemble("pcs", READ_AFTER_STRIKE), launch, "swap-ecc")
        launch = compiled.adjust_launch(launch)
        image = np.zeros(32, dtype=np.uint32)
        codec = make_scheme("secded-dp")
        plan = FaultPlan(cta_index=0, warp_index=0, occurrence=occurrence,
                         lane=3, bit=4, where="result")
        scalar = ResilienceState(mode="swap", scheme=codec, fault=plan)
        scalar_reference(compiled.kernel, launch, image, scalar, 1_000)
        result = run_trials(compiled.kernel, launch, image,
                            [ResilienceState(mode="swap", scheme=codec,
                                             fault=plan)])
        for state in (scalar, result.states[0]):
            assert [(event.kind, event.pc) for event in state.events] \
                == [("due", pc)]


class TestPerTrialWatchdog:
    def test_hang_bins_only_the_struck_trial(self):
        kernel = assemble("countdown", COUNTDOWN)
        launch = LaunchConfig(1, 32)
        image = np.zeros(32, dtype=np.uint32)
        plan = FaultPlan(cta_index=0, warp_index=0, occurrence=1, lane=3,
                         bit=20, where="result")
        states = [ResilienceState(), ResilienceState(fault=plan),
                  ResilienceState()]
        result = run_trials(kernel, launch, image, states, max_steps=5_000)
        assert result.outcomes == [TRIAL_OK, TRIAL_HANG, TRIAL_OK]
        # Healthy trials stop ticking once they finish: their step
        # counts stay at the short path even though the batch keeps
        # stepping the hung trial.
        assert result.steps[1] > 5_000
        assert result.steps[0] == result.steps[2] < 100

    def test_hang_threshold_matches_scalar(self):
        kernel = assemble("countdown", COUNTDOWN)
        launch = LaunchConfig(1, 32)
        image = np.zeros(32, dtype=np.uint32)
        plan = FaultPlan(cta_index=0, warp_index=0, occurrence=1, lane=3,
                         bit=12, where="result")
        for max_steps in (1_000, 100_000):
            state = ResilienceState(fault=plan)
            want, _, _ = scalar_reference(kernel, launch, image, state,
                                          max_steps)
            result = run_trials(kernel, launch, image,
                                [ResilienceState(fault=plan)],
                                max_steps=max_steps)
            assert result.outcomes == [want], max_steps


class TestFallback:
    def test_cross_trial_divergent_barrier_flags_fallback(self):
        kernel = assemble("skipbar", SKIPPED_BARRIER)
        launch = LaunchConfig(1, 32)
        image = np.zeros(32, dtype=np.uint32)
        plan = FaultPlan(cta_index=0, warp_index=0, occurrence=1, lane=0,
                         bit=4, bits=(4,), lanes=tuple(range(32)),
                         where="result")
        states = [ResilienceState(), ResilienceState(fault=plan),
                  ResilienceState()]
        result = run_trials(kernel, launch, image, states)
        assert result.outcomes == [TRIAL_OK, TRIAL_FALLBACK, TRIAL_OK]
        # The healthy trials still completed and stored their zeros.
        for index in (0, 2):
            assert np.array_equal(result.memory.image_of(index),
                                  np.zeros(32, dtype=np.uint32))

    def test_mixed_mode_states_rejected(self):
        instance = get_workload("saxpy").build(scale=0.25, seed=11)
        states = [ResilienceState(mode="none"),
                  ResilienceState(mode="swdup")]
        with pytest.raises(SimulationError):
            run_trials(instance.kernel, instance.launch,
                       instance.memory.words, states)
        # Trials that never fork inherit golden's halting, so
        # halt_on_detect must agree too.
        states = [ResilienceState(), ResilienceState(halt_on_detect=False)]
        with pytest.raises(SimulationError):
            run_trials(instance.kernel, instance.launch,
                       instance.memory.words, states)


class TestEngineEquivalence:
    """tensor=True must be count-identical to the scalar engine loop."""

    @pytest.mark.parametrize("workload,scheme,size", [
        ("saxpy", "swap-ecc", 120),
        ("fxp-stream", "swdup", 80),
        ("gaussian", "swap-ecc", 48),
    ])
    def test_gpu_batch_counts_identical(self, workload, scheme, size):
        params = {"workload": workload, "compile_scheme": scheme,
                  "scale": 0.25, "trial_batch": 48}
        batch = BatchSpec(index=0, size=size, seed=STRESS_SEED + 7)
        scalar = run_gpu_batch(dict(params, tensor=False), None, batch)
        batched = run_gpu_batch(dict(params, tensor=True), None, batch)
        assert batched["counts"] == scalar["counts"]
        assert batched["trials"] == scalar["trials"]
        assert batched["successes"] == scalar["successes"]
        assert batched["payload"]["executor"] == "tensor"

    @pytest.mark.parametrize("workload,scheme,where", [
        ("saxpy", "swap-ecc", "result"),
        ("saxpy", "baseline", "result"),
        ("fxp-stream", "swdup", "result"),
        ("btree", "swap-ecc", "storage"),
    ])
    def test_multi_bit_plan_counts_identical(self, workload, scheme, where):
        # run_gpu_batch draws single-bit plans, but the engine's two
        # trial loops bin any plan list: multi-bit, burst and
        # multi-lane strikes must tally identically through both
        rng = random.Random(f"{STRESS_SEED}/engine-mbu/{workload}/{scheme}")
        instance = get_workload(workload).build(scale=0.25, seed=11)
        plans = random_plans(rng, instance.launch, 40, occurrence_max=12,
                             where=where, multi=True)
        plans += [dataclasses.replace(plan, bits=None,
                                      burst=rng.randrange(2, 5))
                  for plan in plans[:20]]
        assert any(plan.multiplicity > 1 for plan in plans)
        assert any(len(plan.strike_lanes) > 1 for plan in plans)
        compiled = compile_for_scheme(instance.kernel, instance.launch,
                                      scheme)
        launch = compiled.adjust_launch(instance.launch)
        fresh_state = _state_factory(resilience_mode(scheme), "secded-dp")
        scalar = _run_trials_scalar(instance, compiled.kernel, launch,
                                    plans, fresh_state, 100_000)
        batched = _run_trials_tensor(instance, compiled.kernel, launch,
                                     plans, fresh_state, 100_000,
                                     trial_batch=24)
        assert scalar["trials"] > 0
        assert batched["counts"] == scalar["counts"]
        assert batched["trials"] == scalar["trials"]
        assert batched["successes"] == scalar["successes"]


#: (params, trials) of the pinned GPU campaign grid; every unit builds
#: at scale 0.25 unless its params say otherwise, build seed 0
PINNED_GRID = [
    ({"workload": "saxpy", "compile_scheme": "swap-ecc", "scale": 1.0},
     256),
    ({"workload": "gaussian", "compile_scheme": "swap-ecc"}, 256),
    ({"workload": "gaussian", "compile_scheme": "swdup"}, 256),
    ({"workload": "bfs", "compile_scheme": "swap-ecc"}, 96),
    ({"workload": "snap", "compile_scheme": "swap-ecc"}, 96),
    ({"workload": "pathfinder", "compile_scheme": "baseline"}, 128),
    ({"workload": "btree", "compile_scheme": "pre-mad"}, 128),
    ({"workload": "btree", "compile_scheme": "swap-ecc",
      "where": "storage"}, 96),
    ({"workload": "btree", "compile_scheme": "pre-mad",
      "where": "predictor"}, 96),
    ({"workload": "lavamd", "compile_scheme": "swap-ecc"}, 32),
]

PINNED_GRID_SHA256 = \
    "ea881228804528353bfceffeae98748854e7ec0c9e1aa386c021eb3944a46347"


class TestPinnedTensorCounts:
    """The tensor path's campaign counts across protections and sites.

    Covers what the e2ebench digests do not: baseline, pre-mad,
    storage and predictor strikes and fp64 (lavaMD).
    """

    def test_grid_counts_match_pinned_digest(self):
        rows = []
        for index, (params, trials) in enumerate(PINNED_GRID):
            params = dict({"scale": 0.25, "build_seed": 0}, **params)
            report = run_gpu_batch(params, None,
                                   BatchSpec(index=0, size=trials,
                                             seed=1000 + index))
            rows.append({"trials": report["trials"],
                         "successes": report["successes"],
                         "counts": report["counts"],
                         "fallbacks": report["payload"]["fallbacks"]})
        payload = json.dumps(rows, sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == PINNED_GRID_SHA256, payload


class TestIndexedWords:
    """The taint-map index must track every mutation path the scalar
    :class:`~repro.gpu.resilience.TaintTracker` uses (setitem, delitem,
    pop with and without default)."""

    def test_set_delete_pop_maintain_index(self):
        words = _IndexedWords()
        words[(1, 3)] = "a"
        words[(1, 5)] = "b"
        words[(2, 0)] = "c"
        assert words.by_register[1] == {3, 5}
        assert words.by_register[2] == {0}
        words[(1, 3)] = "a2"  # overwrite keeps the index intact
        assert words.by_register[1] == {3, 5}
        del words[(1, 3)]
        assert words.by_register[1] == {5}
        assert words.pop((1, 5)) == "b"
        assert 1 not in words.by_register
        assert words.pop((9, 9), None) is None
        assert 9 not in words.by_register
        assert dict(words) == {(2, 0): "c"}

    def test_missing_pop_without_default_raises(self):
        words = _IndexedWords()
        with pytest.raises(KeyError):
            words.pop((1, 1))


class TestFallbackAttribution:
    def test_divergent_barrier_reason_is_per_trial(self):
        kernel = assemble("skipbar", SKIPPED_BARRIER)
        launch = LaunchConfig(1, 32)
        image = np.zeros(32, dtype=np.uint32)
        plan = FaultPlan(cta_index=0, warp_index=0, occurrence=1, lane=0,
                         bit=4, bits=(4,), lanes=tuple(range(32)),
                         where="result")
        states = [ResilienceState(), ResilienceState(fault=plan),
                  ResilienceState()]
        result = run_trials(kernel, launch, image, states)
        assert result.outcomes == [TRIAL_OK, TRIAL_FALLBACK, TRIAL_OK]
        # only the struck trial carries a reason; decided trials stay None
        assert result.fallback_reasons == [None, "divergent_barrier",
                                           None]

    def test_finish_live_attributes_union_reasons(self):
        from repro.gpu.tensor import TrialBatch
        plan = FaultPlan(cta_index=0, warp_index=0, occurrence=0, lane=0,
                         bit=0)
        batch = TrialBatch([ResilienceState(fault=plan),
                            ResilienceState(fault=plan),
                            ResilienceState()],
                           np.zeros(32, dtype=np.uint32), max_steps=100)
        # trials 0 and 1 run in forks; trial 2 still follows golden
        first = batch.fork(0)
        batch.fork(1)
        batch.finish(first, TRIAL_OK)
        batch.finish_live(TRIAL_FALLBACK, reason="union_deadlock")
        result = batch.result()
        assert result.fallback_reasons == [None, "union_deadlock",
                                           "union_deadlock"]
        # a non-fallback outcome never records a reason
        assert result.outcomes == [TRIAL_OK, TRIAL_FALLBACK,
                                   TRIAL_FALLBACK]

    def test_engine_payload_tallies_reasons(self):
        """run_gpu_batch(tensor=True) surfaces a per-reason tally in its
        campaign payload when any trial fell back."""
        from repro.gpu import tensor as tensor_module
        from repro.inject.engine import _run_trials_tensor

        original = tensor_module.run_trials

        def forced_fallback(kernel, launch, image, states, **kwargs):
            result = original(kernel, launch, image, states, **kwargs)
            for index in range(len(result.outcomes)):
                result.outcomes[index] = TRIAL_FALLBACK
                result.fallback_reasons[index] = (
                    "divergent_barrier" if index % 2 else "union_error")
            return result

        instance = get_workload("saxpy").build(scale=0.25, seed=11)
        plans = []
        rng = random.Random(5)
        for _ in range(4):
            plans.append(FaultPlan(
                cta_index=0, warp_index=0,
                occurrence=rng.randrange(1, 4),
                lane=rng.randrange(32), bit=rng.randrange(32),
                where="result"))

        def fresh_state(plan, shared=None):
            return ResilienceState(fault=plan)

        tensor_module.run_trials = forced_fallback
        try:
            report = _run_trials_tensor(
                instance, instance.kernel, instance.launch, plans,
                fresh_state, max_steps=200_000, trial_batch=4)
        finally:
            tensor_module.run_trials = original
        payload = report["payload"]
        assert payload["fallbacks"] == 4
        assert payload["fallback_reasons"] == {
            "divergent_barrier": 2, "union_error": 2}
