"""Tests for the workload suite: structure, verification, scheme matrix."""

import numpy as np
import pytest

from repro.compiler import CodeMixProfiler, compile_for_scheme, resilience_mode
from repro.ecc import SecDedDpSwap
from repro.errors import CompilationError, WorkloadError
from repro.gpu import Device, ResilienceState, run_functional
from repro.workloads import (ALL_ORDER, MICRO_ORDER, RODINIA_ORDER,
                             WORKLOADS, get_workload)

SMALL = 0.25

#: the programs the inter-thread pass rejects, as in the paper
INTERTHREAD_REJECTED = ("snap", "matmul")


class TestRegistry:
    def test_all_fifteen_registered(self):
        assert set(ALL_ORDER) | set(MICRO_ORDER) == set(WORKLOADS)
        assert len(ALL_ORDER) == 15
        assert len(RODINIA_ORDER) == 13
        assert not set(ALL_ORDER) & set(MICRO_ORDER)

    def test_unknown_name_raises(self):
        with pytest.raises(WorkloadError):
            get_workload("doom")

    def test_paper_names_present(self):
        labels = {WORKLOADS[name].paper_name for name in ALL_ORDER}
        assert {"lavaMD", "b+tree", "srad_v2", "SNAP"} <= labels


@pytest.mark.parametrize("name", ALL_ORDER + MICRO_ORDER)
class TestEachWorkload:
    def test_builds_and_verifies(self, name):
        instance = get_workload(name).build(scale=SMALL, seed=11)
        memory = instance.fresh_memory()
        run_functional(instance.kernel, instance.launch, memory)
        assert instance.verify(memory), name

    def test_fresh_memory_is_independent(self, name):
        instance = get_workload(name).build(scale=SMALL, seed=11)
        first = instance.fresh_memory()
        second = instance.fresh_memory()
        first.words[:] = 0
        assert not np.array_equal(first.words, second.words) or \
            second.words.sum() == 0

    def test_unverified_fresh_image_fails(self, name):
        # Before running, the output region is empty: verify must fail
        # (guards against vacuous verifiers).
        instance = get_workload(name).build(scale=SMALL, seed=11)
        assert not instance.verify(instance.fresh_memory())

    def test_deterministic_given_seed(self, name):
        first = get_workload(name).build(scale=SMALL, seed=3)
        second = get_workload(name).build(scale=SMALL, seed=3)
        assert np.array_equal(first.memory.words, second.memory.words)

    def test_swap_ecc_compiles_and_verifies(self, name):
        instance = get_workload(name).build(scale=SMALL, seed=11)
        compiled = compile_for_scheme(instance.kernel, instance.launch,
                                      "swap-ecc")
        memory = instance.fresh_memory()
        state = ResilienceState(mode="swap", scheme=SecDedDpSwap())
        run_functional(compiled.kernel,
                       compiled.adjust_launch(instance.launch), memory,
                       state)
        assert instance.verify(memory)
        assert not state.detected


class TestInterthreadApplicability:
    def test_rodinia_accepts(self):
        for name in RODINIA_ORDER:
            instance = get_workload(name).build(scale=SMALL, seed=1)
            compiled = compile_for_scheme(instance.kernel, instance.launch,
                                          "interthread")
            assert compiled.thread_multiplier == 2

    @pytest.mark.parametrize("name", INTERTHREAD_REJECTED)
    def test_paper_failures_reproduce(self, name):
        instance = get_workload(name).build(scale=SMALL, seed=1)
        with pytest.raises(CompilationError):
            compile_for_scheme(instance.kernel, instance.launch,
                               "interthread")


#: one scheme per compiler pass: the nocheck variants only drop the
#: checking code, and the widest predictor tier predicts every kind the
#: narrower tiers do
PASS_SCHEMES = ("baseline", "swdup", "swap-ecc", "pre-fp-mad", "interthread")

#: bfs lets a warp read a level that another warp writes in the same
#: sweep, so how many of its STGs run depends on how the warps
#: interleave; its result does not
SCHEDULE_DEPENDENT = ("bfs",)


def resilience_state(scheme):
    mode = resilience_mode(scheme)
    return ResilienceState(
        mode=mode, scheme=SecDedDpSwap() if mode == "swap" else None)


@pytest.mark.parametrize("name,scheme", [
    (name, scheme) for name in ALL_ORDER for scheme in PASS_SCHEMES
    if not (scheme == "interthread" and name in INTERTHREAD_REJECTED)])
class TestTimedMatchesFunctional:
    """The timed SM against the functional executor on the figure grid.

    Every program of Figs 12-16 under each compiler pass, at the pinned
    timing grids' scale: the timed launch must leave the functional run's
    memory image and issue the instruction stream it executes.
    """

    def test_same_result_and_instruction_stream(self, name, scheme):
        instance = get_workload(name).build(scale=0.05, seed=0)
        compiled = compile_for_scheme(instance.kernel, instance.launch,
                                      scheme)
        launch = compiled.adjust_launch(instance.launch)
        timed = instance.fresh_memory()
        functional = instance.fresh_memory()
        timed_mix = CodeMixProfiler()
        functional_mix = CodeMixProfiler()
        result = Device().launch(compiled.kernel, launch, timed,
                                 resilience=resilience_state(scheme),
                                 observer=timed_mix)
        state = run_functional(compiled.kernel, launch, functional,
                               resilience_state(scheme),
                               observer=functional_mix)
        assert np.array_equal(timed.words, functional.words)
        assert instance.verify(timed)
        assert not result.detected and not state.detected
        assert result.halted is None
        assert result.issued == timed_mix.counts.total
        if name not in SCHEDULE_DEPENDENT:
            assert timed_mix.counts == functional_mix.counts


class TestWorkloadCharacter:
    def test_lavamd_is_fp64_heavy(self):
        instance = get_workload("lavamd").build(scale=SMALL)
        ops = [i.op for i in instance.kernel.instructions]
        fp64 = sum(1 for op in ops if op.startswith("D"))
        assert fp64 >= 10

    def test_btree_is_integer_only(self):
        instance = get_workload("btree").build(scale=SMALL)
        assert not any(i.op.startswith(("F", "D"))
                       for i in instance.kernel.instructions)

    def test_snap_uses_shuffles(self):
        instance = get_workload("snap").build(scale=SMALL)
        assert any(i.op == "SHFL" for i in instance.kernel.instructions)

    def test_matmul_uses_full_ctas(self):
        instance = get_workload("matmul").build(scale=SMALL)
        assert instance.launch.threads_per_cta == 1024

    def test_scale_grows_problem(self):
        small = get_workload("btree").build(scale=0.25)
        large = get_workload("btree").build(scale=1.0)
        assert large.launch.grid_ctas > small.launch.grid_ctas
