"""Shared plumbing for the per-figure experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.compiler import (CodeMixProfiler, MixCounts, compile_for_scheme,
                            resilience_mode)
from repro.ecc import SecDedDpSwap
from repro.errors import CompilationError, InvalidArgument
from repro.gpu import Device, ResilienceState
from repro.gpu.power import PowerEstimate, PowerModel
from repro.workloads import WorkloadInstance, get_workload


@dataclass
class SchemeRun:
    """One (workload, scheme) measurement."""

    workload: str
    scheme: str
    cycles: int
    seconds: float
    verified: bool
    mix: MixCounts
    warps_per_sm: int
    registers_per_thread: int
    power: PowerEstimate
    rejected: bool = False


def run_scheme(instance: WorkloadInstance, scheme: str,
               device: Optional[Device] = None,
               power_model: Optional[PowerModel] = None) -> SchemeRun:
    """Compile, run with timing, verify, and profile one configuration.

    A scheme the pass rejects for this workload (inter-thread on SNAP or
    matrixMul) yields a record with ``rejected=True``.
    """
    if device is None:
        device = Device()
    if power_model is None:
        power_model = PowerModel()
    try:
        compiled = compile_for_scheme(instance.kernel, instance.launch,
                                      scheme)
    except CompilationError:
        return SchemeRun(
            workload=instance.name, scheme=scheme, cycles=0, seconds=0.0,
            verified=False, mix=MixCounts(), warps_per_sm=0,
            registers_per_thread=0,
            power=PowerEstimate(0.0, 0.0, power_model.static_watts),
            rejected=True)
    launch = compiled.adjust_launch(instance.launch)
    memory = instance.fresh_memory()
    profiler = CodeMixProfiler()
    mode = resilience_mode(scheme)
    state = ResilienceState(
        mode=mode, scheme=SecDedDpSwap() if mode == "swap" else None)
    result = device.launch(compiled.kernel, launch, memory,
                           resilience=state, observer=profiler)
    return SchemeRun(
        workload=instance.name, scheme=scheme, cycles=result.cycles,
        seconds=result.seconds, verified=instance.verify(memory),
        mix=profiler.counts,
        warps_per_sm=result.occupancy.warps_per_sm,
        registers_per_thread=result.occupancy.registers_per_thread,
        power=power_model.estimate(result))


def run_matrix(workloads: Sequence[str], schemes: Sequence[str],
               scale: float = 1.0, seed: int = 0,
               device: Optional[Device] = None
               ) -> Dict[str, Dict[str, SchemeRun]]:
    """The (workload x scheme) measurement grid behind Figures 12-16."""
    if device is None:
        device = Device()
    grid: Dict[str, Dict[str, SchemeRun]] = {}
    for name in workloads:
        instance = get_workload(name).build(scale=scale, seed=seed)
        grid[name] = {
            scheme: run_scheme(instance, scheme, device)
            for scheme in schemes
        }
    return grid


def slowdown(run: SchemeRun, baseline: SchemeRun) -> float:
    """Relative slowdown versus the un-duplicated program."""
    if baseline.cycles <= 0:
        raise InvalidArgument("baseline did not run")
    return run.cycles / baseline.cycles - 1.0


def geometric_label(value: float) -> str:
    return f"{value * 100:+.0f}%"


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> str:
    """Plain-text table with right-aligned value columns."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(
        header.ljust(widths[0]) if index == 0 else header.rjust(
            widths[index])
        for index, header in enumerate(headers)))
    for row in rows:
        lines.append("  ".join(
            cell.ljust(widths[0]) if index == 0 else cell.rjust(
                widths[index])
            for index, cell in enumerate(row)))
    return "\n".join(lines)
