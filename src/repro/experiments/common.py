"""Shared plumbing for the per-figure experiment harnesses."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import (CodeMixProfiler, MixCounts, compile_for_scheme,
                            resilience_mode)
from repro.ecc import SecDedDpSwap
from repro.errors import CompilationError, InvalidArgument, SimulationError
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


#: one grid cell: (workload name, its built instance, scheme)
_Cell = Tuple[str, WorkloadInstance, str]


def run_matrix(workloads: Sequence[str], schemes: Sequence[str],
               scale: float = 1.0, seed: int = 0,
               device: Optional[Device] = None
               ) -> Dict[str, Dict[str, SchemeRun]]:
    """The (workload x scheme) measurement grid behind Figures 12-16.

    Every workload is built first, in grid order; the cells then run on
    every CPU this process may use (:func:`_run_cells`).
    """
    if device is None:
        device = Device()
    cells: List[_Cell] = []
    for name in workloads:
        instance = get_workload(name).build(scale=scale, seed=seed)
        cells.extend((name, instance, scheme) for scheme in schemes)
    grid: Dict[str, Dict[str, SchemeRun]] = {name: {} for name in workloads}
    for (name, _, scheme), run in zip(cells, _run_cells(cells, device)):
        grid[name][scheme] = run
    return grid


def _run_cells(cells: Sequence[_Cell], device: Device) -> List[SchemeRun]:
    """Run every cell with :func:`run_scheme`; the runs in cell order.

    Cells share nothing, so they run on a pool of forked workers, one
    per CPU this process may use.  Workers inherit the built instances
    and ``device``; only cell indices and :class:`SchemeRun` records
    cross their pipes.  The parent hands out indices in cell order as
    workers become free.  The cells run in order in this process, with
    nothing forked, when there is one CPU or one cell, or when another
    thread is alive (forking a threaded process is unsafe).

    A cell's exception is raised again here with its own type; a worker
    that dies raises :class:`~repro.errors.SimulationError` naming its
    cell.  Every worker is joined before this returns or raises.
    """
    workers = min(len(os.sched_getaffinity(0)), len(cells))
    if workers < 2 or threading.active_count() > 1:
        return [run_scheme(instance, scheme, device)
                for _, instance, scheme in cells]
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    runs: List[Optional[SchemeRun]] = [None] * len(cells)
    order = iter(range(len(cells)))
    pool = []  # (worker, the parent's end of its pipe)
    busy = {}  # parent's pipe end -> index of the cell its worker runs
    try:
        for _ in range(workers):
            conn, worker_conn = context.Pipe()
            ends = [end for _, end in pool] + [conn]
            worker = context.Process(
                target=_cell_worker, args=(worker_conn, ends, cells, device),
                daemon=True)
            worker.start()
            worker_conn.close()
            pool.append((worker, conn))
            busy[conn] = next(order)
            conn.send(busy[conn])
        while busy:
            for conn in wait(list(busy)):
                index = busy.pop(conn)
                try:
                    ok, payload = conn.recv()
                except (EOFError, OSError):
                    name, _, scheme = cells[index]
                    raise SimulationError(
                        f"the worker running {name}/{scheme} died",
                        context={"workload": name,
                                 "scheme": scheme}) from None
                if not ok:
                    raise payload
                runs[index] = payload
                index = next(order, None)
                if index is not None:
                    busy[conn] = index
                    conn.send(index)
    finally:
        # An idle worker exits on EOF; a busy one is stopped.
        for worker, conn in pool:
            conn.close()
            if conn in busy:
                worker.terminate()
        for worker, _ in pool:
            worker.join()
    return runs


def _cell_worker(conn, parent_ends, cells: Sequence[_Cell],
                 device: Device) -> None:
    """Pool worker: run each cell index received until the pipe closes.

    ``parent_ends`` are the parent's ends of every pipe so far, this
    worker's included; closing the fork's copies lets each worker see
    EOF once the parent closes its end.  Ctrl-C reaches the parent,
    which stops the pool.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:
        end.close()
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        _, instance, scheme = cells[index]
        try:
            reply = (True, run_scheme(instance, scheme, device))
        except Exception as exc:  # noqa: BLE001 — raised in the parent
            reply = (False, exc)
        conn.send(reply)


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
