"""The streaming multiprocessor timing model.

Each SM hosts the CTAs occupancy allows, issuing up to ``issue_width``
instructions per cycle from ready warps (greedy round-robin).  A warp can
issue when its source registers/predicates are ready (scoreboard) and its
target pipe's initiation interval has elapsed.  Global memory instructions
occupy the LSU in proportion to their coalescing transaction count and
complete after the load latency; barriers park warps until the whole CTA
arrives.

Writes to the same register from an instruction pair (Swap-ECC's original
and shadow) do not stall each other — the in-order pipeline retires them in
order — but any reader waits for the *later* writeback, which is exactly
the write-after-write dependence Section III-A describes.

A warp's next instruction, its pipe and its operand-ready cycle change only
when that warp issues: the scoreboard and issue slot are written only when
the warp's own instruction is accounted, and its SIMT stack only by its own
step.  Each scheduler slot therefore caches them and refetches on the
warp's first scan after it issues.  The refetch stays lazy on purpose:
fetching is what finds a warp's stack empty and marks it done, so fetching
right after the issue would retire CTAs a cycle early and shift every
cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.gpu.isa import OPCODES, Instruction, OperandKind, Pipe
from repro.gpu.memory import MemorySpace
from repro.gpu.program import Kernel, LaunchConfig
from repro.gpu.resilience import ResilienceState
from repro.gpu.timing import TimingParams
from repro.gpu.warp import KernelHalt, Warp


@dataclass
class SmStats:
    """Issue and utilization counters for one SM."""

    cycles: int = 0
    issued: int = 0
    issued_by_pipe: Dict[str, int] = field(default_factory=dict)
    memory_transactions: int = 0
    idle_cycles: int = 0
    l1_hits: int = 0
    l1_misses: int = 0

    def count(self, pipe: Pipe) -> None:
        """Tally one issued instruction against its pipe."""
        self.issued += 1
        self.issued_by_pipe[pipe.value] = \
            self.issued_by_pipe.get(pipe.value, 0) + 1


class L1Cache:
    """A simple LRU cache of 128-byte global-memory lines."""

    def __init__(self, lines: int):
        self.capacity = lines
        self._lines: Dict[int, None] = {}

    def access(self, segment: int) -> bool:
        """Touch one line; returns True on hit."""
        if self.capacity <= 0:
            return False
        hit = segment in self._lines
        if hit:
            self._lines.pop(segment)
        elif len(self._lines) >= self.capacity:
            self._lines.pop(next(iter(self._lines)))
        self._lines[segment] = None
        return hit


class _Cta:
    """One resident CTA: its warps and shared memory."""

    def __init__(self, cta_index: int, warps: List[Warp]):
        self.cta_index = cta_index
        self.warps = warps

    @property
    def done(self) -> bool:
        return all(warp.done for warp in self.warps)

    def barrier_release(self) -> bool:
        """If every live warp is at the barrier, release them all."""
        for warp in self.warps:
            if not warp.done and not warp.at_barrier:
                return False
        for warp in self.warps:
            warp.at_barrier = False
        return True


class _Slot:
    """Scheduler state for one resident warp.

    ``instruction``, ``ready`` and ``pipe`` describe the warp's next
    instruction.  They hold from one issue to the next, so they are
    recomputed only while ``stale`` is set, which every issue sets again.
    """

    __slots__ = ("warp", "cta", "reg_ready", "pred_ready", "next_free",
                 "instruction", "ready", "pipe", "stale")

    def __init__(self, warp: Warp, cta: _Cta):
        self.warp = warp
        self.cta = cta
        self.reg_ready: Dict[int, int] = {}
        self.pred_ready: Dict[int, int] = {}
        self.next_free = 0
        self.instruction: Optional[Instruction] = None
        self.ready = 0
        self.pipe: Optional[Pipe] = None
        self.stale = True

    def refresh(self) -> bool:
        """Fetch the warp's next instruction; False once the warp is done."""
        entry = self.warp.current_entry()
        if entry is None:
            return False
        instruction = self.warp.kernel.instructions[entry.pc]
        self.instruction = instruction
        self.ready = self.ready_cycle(instruction)
        self.pipe = instruction.spec.pipe
        self.stale = False
        return True

    def ready_cycle(self, instruction: Instruction) -> int:
        """Earliest cycle this instruction's operands are all available."""
        ready = self.next_free
        for register in instruction.source_registers():
            ready = max(ready, self.reg_ready.get(register, 0))
        # Predicated execution reads the guard predicate; SEL reads one too.
        if instruction.predicate is not None:
            ready = max(ready,
                        self.pred_ready.get(instruction.predicate, 0))
        for operand in instruction.sources:
            if operand.kind is OperandKind.PREDICATE:
                ready = max(ready, self.pred_ready.get(operand.value, 0))
        # Write-after-write needs no issue stall: the in-order pipeline
        # retires same-register writes in order (Section III-A), so a
        # Swap-ECC shadow issues right behind its original.  Readers wait
        # for the *latest* in-flight write via the max() in _account.
        return ready


class StreamingMultiprocessor:
    """Executes a queue of CTAs with cycle-approximate timing."""

    def __init__(self, sm_index: int, params: TimingParams, kernel: Kernel,
                 launch: LaunchConfig, global_memory: MemorySpace,
                 resilience: ResilienceState, observer=None, watchdog=None):
        self.sm_index = sm_index
        self.params = params
        self.kernel = kernel
        self.launch = launch
        self.global_memory = global_memory
        self.resilience = resilience
        self.observer = observer
        self.watchdog = watchdog
        self.stats = SmStats()
        self.register_count = max(kernel.register_count(), 1)
        self.l1 = L1Cache(params.l1_lines)

    # ------------------------------------------------------------------
    def _make_cta(self, cta_index: int) -> _Cta:
        shared = None
        if self.launch.shared_words_per_cta:
            shared = MemorySpace(self.launch.shared_words_per_cta,
                                 name=f"shared.cta{cta_index}")
        warps = []
        threads_left = self.launch.threads_per_cta
        for warp_index in range(self.launch.warps_per_cta):
            count = min(32, threads_left)
            threads_left -= count
            warp = Warp(self.kernel, cta_index, warp_index, count,
                        self.launch.threads_per_cta, self.launch.grid_ctas,
                        self.register_count, self.global_memory, shared,
                        self.resilience)
            warp.observer = self.observer
            warps.append(warp)
        return _Cta(cta_index, warps)

    # ------------------------------------------------------------------
    def run(self, cta_indices: List[int]) -> int:
        """Run the given CTAs to completion; returns total cycles."""
        occupancy = self.params.occupancy(self.kernel, self.launch)
        pending = list(cta_indices)
        slots: List[_Slot] = []
        ctas: List[_Cta] = []
        pipe_free: Dict[Pipe, List[int]] = {
            pipe: [0] * self.params.pipe_units(pipe) for pipe in Pipe}
        cycle = 0
        rr_pointer = 0

        def admit():
            while pending and len(ctas) < occupancy.ctas_per_sm:
                cta = self._make_cta(pending.pop(0))
                ctas.append(cta)
                for warp in cta.warps:
                    slot = _Slot(warp, cta)
                    slot.next_free = cycle
                    slots.append(slot)

        admit()
        while slots or pending:
            issued = 0
            for position in chain(range(rr_pointer, len(slots)),
                                  range(rr_pointer)):
                if issued >= self.params.issue_width:
                    break
                slot = slots[position]
                warp = slot.warp
                if warp.done or warp.at_barrier:
                    continue
                if slot.stale and not slot.refresh():
                    continue
                if slot.ready > cycle:
                    continue
                if min(pipe_free[slot.pipe]) > cycle:
                    continue
                try:
                    info = warp.step()
                except KernelHalt:
                    # The halting instruction issued in this cycle.
                    self.stats.cycles = cycle + 1
                    raise
                slot.stale = True
                issued += 1
                if self.watchdog is not None:
                    self.watchdog.tick(slot.cta.cta_index, warp.warp_index)
                rr_pointer = (position + 1) % len(slots)
                self._account(slot, info, pipe_free, cycle)
                if info.barrier:
                    slot.cta.barrier_release()

            # Retire finished CTAs and admit new ones.
            finished = [cta for cta in ctas if cta.done]
            if finished:
                for cta in finished:
                    ctas.remove(cta)
                slots = [slot for slot in slots if not slot.warp.done]
                rr_pointer = 0
                admit()

            if not slots and not pending:
                break
            if issued:
                cycle += 1
            else:
                if self.watchdog is not None:
                    self.watchdog.check_deadline()
                cycle = self._skip_to_next_event(slots, pipe_free, cycle)
        self.stats.cycles = cycle
        return cycle

    # ------------------------------------------------------------------
    def _account(self, slot: _Slot, info,
                 pipe_free: Dict[Pipe, List[int]], cycle: int) -> None:
        instruction = slot.instruction
        pipe = slot.pipe
        spec = instruction.spec
        interval = spec.initiation_interval
        latency = spec.latency
        if pipe is Pipe.LSU:
            transactions = max(1, info.transactions)
            interval = interval + self.params.lsu_cycles_per_transaction * \
                (transactions - 1)
            if info.segments:
                hits = sum(self.l1.access(segment)
                           for segment in info.segments)
                misses = len(info.segments) - hits
                self.stats.l1_hits += hits
                self.stats.l1_misses += misses
                if instruction.op in ("LDG", "ATOM") and misses == 0:
                    latency = self.params.l1_hit_latency
            latency = latency + 2 * (transactions - 1)
            self.stats.memory_transactions += transactions
        units = pipe_free[pipe]
        unit = min(range(len(units)), key=units.__getitem__)
        units[unit] = cycle + interval
        slot.next_free = cycle + 1
        for register in instruction.dest_registers():
            slot.reg_ready[register] = max(
                slot.reg_ready.get(register, 0), cycle + latency)
        if instruction.dest is not None and \
                instruction.dest.kind is OperandKind.PREDICATE:
            slot.pred_ready[instruction.dest.value] = cycle + latency
        self.stats.count(pipe)

    def _skip_to_next_event(self, slots: List[_Slot],
                            pipe_free: Dict[Pipe, List[int]],
                            cycle: int) -> int:
        """Nothing issued: jump to the earliest cycle something could."""
        candidates = []
        for slot in slots:
            warp = slot.warp
            if warp.done or warp.at_barrier:
                continue
            if slot.stale and not slot.refresh():
                continue
            candidates.append(max(slot.ready, min(pipe_free[slot.pipe])))
        if not candidates:
            barriers = [slot for slot in slots
                        if not slot.warp.done and slot.warp.at_barrier]
            if barriers:
                raise SimulationError(
                    f"{self.kernel.name}: deadlock — warps stuck at a "
                    f"barrier that can never release")
            return cycle
        earliest = min(candidates)
        if earliest <= cycle:
            # Should not happen; guard against infinite loops.
            return cycle + 1
        self.stats.idle_cycles += earliest - cycle
        return earliest
