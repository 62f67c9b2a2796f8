"""Device-level launch API: the simulator's ``cudaLaunchKernel``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.gpu.memory import MemorySpace
from repro.gpu.program import Kernel, LaunchConfig
from repro.gpu.resilience import ResilienceState
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.timing import Occupancy, TimingParams
from repro.gpu.warp import KernelHalt, Warp
from repro.gpu.watchdog import Watchdog, WatchdogConfig


@dataclass
class LaunchResult:
    """Everything one kernel launch reports back."""

    kernel_name: str
    cycles: int
    seconds: float
    occupancy: Occupancy
    issued: int
    issued_by_pipe: Dict[str, int]
    memory_transactions: int
    resilience: ResilienceState
    halted: Optional[str] = None

    @property
    def detected(self) -> bool:
        """True when any DUE or checking trap fired during the launch."""
        return self.resilience.detected


class Device:
    """A GPU: several SMs sharing one global memory."""

    def __init__(self, params: Optional[TimingParams] = None):
        self.params = params if params is not None else TimingParams()

    def launch(self, kernel: Kernel, launch: LaunchConfig,
               global_memory: MemorySpace,
               resilience: Optional[ResilienceState] = None,
               observer=None,
               watchdog: Optional[Watchdog] = None) -> LaunchResult:
        """Run ``kernel`` with timing; CTAs round-robin across SMs.

        ``watchdog`` (optional) is ticked per issued instruction and has
        its wall-clock deadline polled by every SM; budget exhaustion
        raises :class:`~repro.errors.HangError`.
        """
        kernel.validate()
        state = resilience if resilience is not None else ResilienceState()
        if watchdog is not None:
            watchdog.start()
        occupancy = self.params.occupancy(kernel, launch)
        cycles = 0
        issued = 0
        issued_by_pipe: Dict[str, int] = {}
        transactions = 0
        halted = None
        for sm_index in range(self.params.num_sms):
            cta_indices = list(range(sm_index, launch.grid_ctas,
                                     self.params.num_sms))
            if not cta_indices:
                continue
            sm = StreamingMultiprocessor(
                sm_index, self.params, kernel, launch, occupancy,
                global_memory, state, observer, watchdog)
            try:
                with np.errstate(all="ignore"):
                    sm_cycles = sm.run(cta_indices)
            except KernelHalt as halt:
                halted = halt.reason
                sm_cycles = sm.stats.cycles
            cycles = max(cycles, sm_cycles)
            issued += sm.stats.issued
            transactions += sm.stats.memory_transactions
            for pipe, count in sm.stats.issued_by_pipe.items():
                issued_by_pipe[pipe] = issued_by_pipe.get(pipe, 0) + count
            if halted:
                break
        seconds = cycles / (self.params.clock_ghz * 1e9)
        return LaunchResult(
            kernel_name=kernel.name, cycles=cycles, seconds=seconds,
            occupancy=occupancy, issued=issued,
            issued_by_pipe=issued_by_pipe,
            memory_transactions=transactions, resilience=state,
            halted=halted)


@np.errstate(all="ignore")
def run_functional_cta(kernel: Kernel, launch: LaunchConfig, cta_index: int,
                       global_memory: MemorySpace,
                       resilience: Optional[ResilienceState] = None,
                       observer=None,
                       watchdog: Optional[Watchdog] = None,
                       register_count: Optional[int] = None,
                       step_limit: Optional[int] = None) -> int:
    """Run one CTA functionally to completion; returns steps executed.

    The building block under :func:`run_functional` and the recovery
    ladder's rung-1 CTA replay: register state is fresh (architectural
    checkpoint at CTA launch) and shared memory is pristine, so replaying
    a CTA only needs the pre-CTA global-memory image.  Warps round-robin
    so barriers and shared memory behave.

    Detections (:class:`~repro.gpu.warp.KernelHalt`) and watchdog
    verdicts (:class:`~repro.errors.HangError`) propagate to the caller.
    ``step_limit`` stops cleanly after that many steps — the containment
    auditor uses it to replay exactly the executed prefix of a detected
    run.  Scheduling is deterministic, which is what makes that replay
    comparable word for word.
    """
    from repro.errors import SimulationError

    state = resilience if resilience is not None else ResilienceState()
    if register_count is None:
        register_count = max(kernel.register_count(), 1)
    shared = None
    if launch.shared_words_per_cta:
        shared = MemorySpace(launch.shared_words_per_cta,
                             name=f"shared.cta{cta_index}")
    warps = []
    threads_left = launch.threads_per_cta
    for warp_index in range(launch.warps_per_cta):
        count = min(32, threads_left)
        threads_left -= count
        warp = Warp(kernel, cta_index, warp_index, count,
                    launch.threads_per_cta, launch.grid_ctas,
                    register_count, global_memory, shared, state)
        warp.observer = observer
        warps.append(warp)
    steps = 0
    while True:
        progressed = False
        barrier_waiters = 0
        for warp in warps:
            if warp.done:
                continue
            if warp.at_barrier:
                barrier_waiters += 1
                continue
            # Run this warp until it blocks or finishes.
            while not warp.done and not warp.at_barrier:
                if step_limit is not None and steps >= step_limit:
                    return steps
                if warp.step() is None:
                    break
                progressed = True
                steps += 1
                if watchdog is not None:
                    watchdog.tick(cta_index, warp.warp_index)
        if all(warp.done for warp in warps):
            return steps
        if not progressed:
            released = False
            if barrier_waiters:
                live = [w for w in warps if not w.done]
                if live and all(w.at_barrier for w in live):
                    for warp in live:
                        warp.at_barrier = False
                    released = True
            if not released:
                raise SimulationError(
                    f"{kernel.name}: functional deadlock in CTA "
                    f"{cta_index}")


def run_functional(kernel: Kernel, launch: LaunchConfig,
                   global_memory: MemorySpace,
                   resilience: Optional[ResilienceState] = None,
                   observer=None,
                   max_steps: int = 50_000_000,
                   watchdog: Optional[Watchdog] = None) -> ResilienceState:
    """Fast functional-only execution (no timing model).

    CTAs run one after another; warps within a CTA round-robin so barriers
    and shared memory behave.  Returns the resilience state (detection
    events); architectural results land in ``global_memory``.

    Exhausting ``max_steps`` — or any budget of an explicitly passed
    ``watchdog``, which then takes precedence over ``max_steps`` — raises
    :class:`~repro.errors.HangError`, so in-process livelock classifies
    as a ``hang``, not a generic crash.
    """
    kernel.validate()
    state = resilience if resilience is not None else ResilienceState()
    register_count = max(kernel.register_count(), 1)
    if watchdog is None:
        watchdog = Watchdog(WatchdogConfig(max_steps=max_steps),
                            name=kernel.name)
    watchdog.start()
    try:
        for cta_index in range(launch.grid_ctas):
            run_functional_cta(kernel, launch, cta_index, global_memory,
                               state, observer, watchdog, register_count)
    except KernelHalt:
        return state
    return state
