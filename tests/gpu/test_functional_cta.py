"""Tests for run_functional_cta and the fault paths it runs.

One CTA is the unit the functional simulator executes, and the unit a
DUE halts.  These tests drive it directly: step accounting, CTA
isolation, the watchdog, and what each register-file code does with a
storage or pipeline strike — corrected in place, a DUE before the
corrupted value reaches memory, or (unprotected) silent corruption.
"""

import os
import random

import numpy as np
import pytest

from repro.compiler import compile_for_scheme
from repro.errors import HangError, SimulationError
from repro.gpu import (FaultPlan, KernelHalt, LaunchConfig, MemorySpace,
                       ResilienceState, Watchdog, WatchdogConfig, assemble,
                       run_functional, run_functional_cta)
from repro.inject.engine import make_scheme

#: out[tid] = in[tid] * 8, one CTA; under swap-ecc the datapath
#: occurrences are 0 = S2R, 1 = IMAD, 2 = its shadow
SOURCE = """
    S2R R0, SR_TID
    LDG R1, [R0]
    IMAD R2, R1, 7, R1
    STG [R0+64], R2
    EXIT
"""

#: the same computation over a grid, one 32-word slice per CTA
MULTI_CTA_SOURCE = """
    S2R R0, SR_TID
    S2R R1, SR_CTAID
    S2R R2, SR_NTID
    IMAD R0, R1, R2, R0
    LDG R1, [R0]
    IMAD R2, R1, 7, R1
    STG [R0+128], R2
    EXIT
"""

CORRECTING_CODES = ["secded-dp", "sec-dp"]
DETECT_ONLY_CODES = ["parity", "mod3", "ted"]
IMAD = 1
IMAD_SHADOW = 2


def raw_kernel(threads=32):
    return assemble("k", SOURCE), LaunchConfig(1, threads)


def swap_kernel():
    kernel, launch = raw_kernel()
    return compile_for_scheme(kernel, launch, "swap-ecc").kernel, launch


def memory_image(words=256, inputs=32):
    memory = MemorySpace(words)
    memory.write_words(0, list(range(inputs)))
    return memory


def expected(count=32):
    return (np.arange(count) * 8).astype(np.uint32)


def swap_state(code, fault=None):
    return ResilienceState(mode="swap", scheme=make_scheme(code),
                           fault=fault)


def run_cta(kernel, launch, state, memory=None):
    """Run CTA 0; returns (memory, halted)."""
    memory = memory if memory is not None else memory_image()
    try:
        run_functional_cta(kernel, launch, 0, memory, state)
    except KernelHalt:
        return memory, True
    return memory, False


def multi_cta(ctas=4):
    kernel = assemble("grid", MULTI_CTA_SOURCE)
    return kernel, LaunchConfig(ctas, 32)


def multi_cta_image(ctas=4):
    return memory_image(512, 32 * ctas)


class TestStepsAndIsolation:
    def test_one_step_per_warp_instruction(self):
        kernel, launch = raw_kernel()
        memory = memory_image()
        assert run_functional_cta(kernel, launch, 0, memory) == 5
        assert np.array_equal(memory.read_words(64, 32), expected())

    def test_steps_count_every_warp(self):
        kernel, launch = raw_kernel(threads=64)
        memory = memory_image(inputs=64)
        assert run_functional_cta(kernel, launch, 0, memory) == 10
        assert np.array_equal(memory.read_words(64, 64), expected(64))

    def test_partial_last_warp_writes_only_its_threads(self):
        kernel, launch = raw_kernel(threads=40)
        memory = memory_image(inputs=40)
        assert run_functional_cta(kernel, launch, 0, memory) == 10
        assert np.array_equal(memory.read_words(64, 40), expected(40))
        assert not memory.read_words(104, 32).any()

    def test_runs_only_the_named_cta(self):
        kernel, launch = multi_cta()
        memory = multi_cta_image()
        run_functional_cta(kernel, launch, 2, memory)
        out = memory.read_words(128, 128)
        assert np.array_equal(out[64:96], expected(128)[64:96])
        assert not out[:64].any() and not out[96:].any()

    def test_cta_by_cta_matches_run_functional(self):
        kernel, launch = multi_cta()
        stepped = multi_cta_image()
        for cta in reversed(range(launch.grid_ctas)):
            run_functional_cta(kernel, launch, cta, stepped)
        whole = multi_cta_image()
        run_functional(kernel, launch, whole)
        assert np.array_equal(stepped.words, whole.words)

    def test_register_count_override_runs_identically(self):
        kernel, launch = raw_kernel()
        default = memory_image()
        wide = memory_image()
        steps = run_functional_cta(kernel, launch, 0, default)
        assert run_functional_cta(kernel, launch, 0, wide,
                                  register_count=16) == steps
        assert np.array_equal(default.words, wide.words)

    def test_observer_sees_every_step(self):
        class Counter:
            def __init__(self):
                self.steps = []

            def on_step(self, warp, info):
                self.steps.append((warp.cta_index, warp.warp_index))

        kernel, launch = multi_cta()
        observer = Counter()
        steps = run_functional_cta(kernel, launch, 3, multi_cta_image(),
                                   observer=observer)
        assert len(observer.steps) == steps
        assert set(observer.steps) == {(3, 0)}


class TestWatchdog:
    def test_step_budget_raises_hang(self):
        kernel, launch = swap_kernel()
        watchdog = Watchdog(WatchdogConfig(max_steps=4))
        with pytest.raises(HangError, match="4 functional steps"):
            run_functional_cta(kernel, launch, 0, memory_image(),
                               swap_state("secded-dp"), watchdog=watchdog)

    def test_warp_budget_names_the_cta(self):
        kernel, launch = multi_cta()
        watchdog = Watchdog(WatchdogConfig(max_steps=None,
                                           max_warp_steps=3))
        with pytest.raises(HangError, match="warp 0 of CTA 2"):
            run_functional_cta(kernel, launch, 2, multi_cta_image(),
                               watchdog=watchdog)

    def test_one_budget_spans_the_ctas_it_is_passed_to(self):
        kernel, launch = multi_cta()
        memory = multi_cta_image()
        watchdog = Watchdog(WatchdogConfig(max_steps=12))
        assert run_functional_cta(kernel, launch, 0, memory,
                                  watchdog=watchdog) == 8
        with pytest.raises(HangError):
            run_functional_cta(kernel, launch, 1, memory, watchdog=watchdog)
        assert watchdog.steps == 13


class TestStorageStrikes:
    @pytest.mark.parametrize("code", CORRECTING_CODES)
    def test_correcting_codes_scrub_in_place(self, code):
        kernel, launch = swap_kernel()
        state = swap_state(code, FaultPlan(0, 0, IMAD, lane=5, bit=9,
                                           where="storage"))
        memory, halted = run_cta(kernel, launch, state)
        assert not halted and not state.detected
        assert state.fault_fired
        assert [event.kind for event in state.events] == ["corrected"]
        assert np.array_equal(memory.read_words(64, 32), expected())

    @pytest.mark.parametrize("code", DETECT_ONLY_CODES)
    def test_detect_only_codes_halt_before_the_store(self, code):
        kernel, launch = swap_kernel()
        state = swap_state(code, FaultPlan(0, 0, IMAD, lane=5, bit=9,
                                           where="storage"))
        memory, halted = run_cta(kernel, launch, state)
        assert halted and state.detected
        assert [(event.kind, event.cta_index, event.warp_index)
                for event in state.events] == [("due", 0, 0)]
        assert not memory.read_words(64, 32).any()

    def test_shadow_instruction_owns_no_storage_to_strike(self):
        kernel, launch = swap_kernel()
        state = swap_state("parity", FaultPlan(0, 0, IMAD_SHADOW, lane=5,
                                               bit=9, where="storage"))
        memory, halted = run_cta(kernel, launch, state)
        assert not halted and not state.fault_fired
        assert state.events == []
        assert np.array_equal(memory.read_words(64, 32), expected())


class TestPipelineStrikes:
    @pytest.mark.parametrize("code", CORRECTING_CODES + DETECT_ONLY_CODES)
    @pytest.mark.parametrize("occurrence", [IMAD, IMAD_SHADOW])
    def test_every_code_detects_and_contains(self, code, occurrence):
        # A pipeline error is never corrected, not even by SEC-DED-DP:
        # the swapped check bits disagree with the data and the DUE
        # fires at the STG's register read, before anything is stored.
        kernel, launch = swap_kernel()
        state = swap_state(code, FaultPlan(0, 0, occurrence, lane=5, bit=9))
        memory, halted = run_cta(kernel, launch, state)
        assert halted and state.detected
        assert [event.kind for event in state.events] == ["due"]
        assert not memory.read_words(64, 32).any()

    def test_unprotected_strike_lands_in_memory(self):
        kernel, launch = raw_kernel()
        state = ResilienceState(fault=FaultPlan(0, 0, IMAD, lane=5, bit=9))
        memory, halted = run_cta(kernel, launch, state)
        assert not halted and state.fault_fired and state.events == []
        corrupted = expected()
        corrupted[5] ^= 1 << 9
        assert np.array_equal(memory.read_words(64, 32), corrupted)

    def test_unprotected_address_strike_crashes(self):
        kernel, launch = raw_kernel()
        state = ResilienceState(fault=FaultPlan(0, 0, 0, lane=5, bit=9))
        with pytest.raises(SimulationError, match="out of range"):
            run_functional_cta(kernel, launch, 0, memory_image(), state)

    def test_protected_address_strike_is_a_due(self):
        kernel, launch = swap_kernel()
        state = swap_state("secded-dp", FaultPlan(0, 0, 0, lane=5, bit=9))
        memory, halted = run_cta(kernel, launch, state)
        assert halted and state.detected
        assert not memory.read_words(64, 32).any()


class TestMultiCta:
    def test_unprotected_strike_touches_only_its_cta(self):
        kernel, launch = multi_cta()
        memory = multi_cta_image()
        # datapath occurrence 4 is the second IMAD (after three S2Rs)
        state = ResilienceState(fault=FaultPlan(2, 0, 4, lane=7, bit=11))
        run_functional(kernel, launch, memory, state)
        out = memory.read_words(128, 128)
        want = expected(128)
        assert np.flatnonzero(out != want).tolist() == [2 * 32 + 7]
        assert out[71] ^ want[71] == 1 << 11

    def test_due_halts_the_launch_at_the_struck_cta(self):
        kernel, launch = multi_cta()
        kernel = compile_for_scheme(kernel, launch, "swap-ecc").kernel
        memory = multi_cta_image()
        state = swap_state("secded-dp", FaultPlan(2, 0, 4, lane=7, bit=11))
        run_functional(kernel, launch, memory, state)
        assert [(event.kind, event.cta_index) for event in state.events] \
            == [("due", 2)]
        out = memory.read_words(128, 128)
        assert np.array_equal(out[:64], expected(128)[:64])
        assert not out[64:].any()  # CTA 2 halted, CTA 3 never ran


class TestContainmentStress:
    def test_random_strikes_never_corrupt_silently(self):
        # Seeded via REPRO_STRESS_SEED so CI can fan the matrix out.
        seed = int(os.environ.get("REPRO_STRESS_SEED", "0"))
        rng = random.Random(seed)
        kernel, launch = multi_cta()
        kernel = compile_for_scheme(kernel, launch, "swap-ecc").kernel
        want = expected(128)
        for trial in range(24):
            plan = FaultPlan(
                cta_index=rng.randrange(launch.grid_ctas), warp_index=0,
                occurrence=rng.randrange(12), lane=rng.randrange(32),
                bit=rng.randrange(32),
                where=rng.choice(["result", "storage"]))
            state = swap_state(rng.choice(["secded-dp", "parity"]), plan)
            memory = multi_cta_image()
            run_functional(kernel, launch, memory, state)
            out = memory.read_words(128, 128)
            context = (seed, trial, plan)
            if state.detected:
                # halted: every word is either stored right or unwritten
                assert np.all((out == want) | (out == 0)), context
            else:
                assert np.array_equal(out, want), context
