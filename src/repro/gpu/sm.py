"""The streaming multiprocessor timing model.

Each SM hosts the CTAs occupancy allows, issuing up to ``issue_width``
instructions per cycle from ready warps (greedy round-robin).  A warp can
issue when its source registers/predicates are ready (scoreboard) and a
unit of its target pipe is free (initiation interval).  Global memory
instructions occupy the LSU in proportion to their coalescing transaction
count and complete after the load latency, or after the L1 hit latency
when every segment they touch hits the SM's LRU L1; barriers park warps
until every live warp of the CTA arrives.

Writes to the same register from an instruction pair (Swap-ECC's original
and shadow) do not stall each other — the in-order pipeline retires them in
order — but any reader waits for the *later* writeback, which is exactly
the write-after-write dependence Section III-A describes.

The per-cycle scan over the resident warps reads only cached fields;
everything else costs once per issued instruction or once per launch:

* :meth:`StreamingMultiprocessor.run` decodes the kernel once into one
  record per pc: pipe index, initiation interval, latency, and the
  registers and predicates read and written.  The scoreboard and the
  accounting read these records, not the instruction.
* Pipes are indexed by int.  Each keeps a heap of its units' free
  cycles and, beside it, its earliest free cycle, so the issue check is
  one list read.
* A warp's next instruction, its pipe and its operand-ready cycle change
  only when that warp issues, so each scheduler slot caches them and
  refetches on the warp's first scan after it issues.  The refetch stays
  lazy on purpose: fetching is what finds a warp's stack empty and marks
  it done, so fetching right after the issue would retire CTAs a cycle
  early and shift every cycle count.
* Each CTA counts its live warps.  The fetch that finds a warp done
  decrements the count; the CTA retires once it reaches zero, and until
  then the exit releases a barrier the remaining live warps all wait at.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError
from repro.gpu.isa import OperandKind, Pipe
from repro.gpu.memory import MemorySpace
from repro.gpu.program import Kernel, LaunchConfig
from repro.gpu.resilience import ResilienceState
from repro.gpu.timing import Occupancy, TimingParams
from repro.gpu.warp import KernelHalt, StackEntry, Warp

#: the timing model's pipes, in the order their int indices follow
_PIPES = tuple(Pipe)
_PIPE_NAMES = tuple(pipe.value for pipe in _PIPES)
_LSU = _PIPES.index(Pipe.LSU)


class _Decoded(NamedTuple):
    """What the timing model needs of the instruction at one pc."""

    pipe: int
    interval: int
    latency: int
    #: 32-bit registers the sources read
    sources: Tuple[int, ...]
    #: predicates read: the guard, then SEL's chooser
    predicates: Tuple[int, ...]
    #: 32-bit registers written
    dests: Tuple[int, ...]
    #: predicate written (ISETP/FSETP/DSETP), else None
    dest_predicate: Optional[int]
    #: an all-hit L1 access completes at the L1 hit latency (LDG, ATOM)
    l1_load: bool


def _decode(kernel: Kernel) -> List[_Decoded]:
    """One timing record per pc of ``kernel``."""
    records = []
    for instruction in kernel.instructions:
        spec = instruction.spec
        predicates = tuple(operand.value for operand in instruction.sources
                           if operand.kind is OperandKind.PREDICATE)
        if instruction.predicate is not None:
            predicates = (instruction.predicate,) + predicates
        dest = instruction.dest
        records.append(_Decoded(
            pipe=_PIPES.index(spec.pipe),
            interval=spec.initiation_interval,
            latency=spec.latency,
            sources=instruction.source_registers(),
            predicates=predicates,
            dests=instruction.dest_registers(),
            dest_predicate=(dest.value if dest is not None and
                            dest.kind is OperandKind.PREDICATE else None),
            l1_load=instruction.op in ("LDG", "ATOM")))
    return records


@dataclass
class SmStats:
    """Issue and utilization counters for one SM."""

    cycles: int = 0
    issued: int = 0
    #: issues per pipe name, keys in first-issue order
    issued_by_pipe: Dict[str, int] = field(default_factory=dict)
    memory_transactions: int = 0


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
    """One resident CTA: its warps and how many are still live."""

    def __init__(self, cta_index: int, warps: List[Warp]):
        self.cta_index = cta_index
        self.warps = warps
        self.live = len(warps)

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

    ``entry``, ``record``, ``pipe`` and ``ready`` describe the warp's
    next instruction: its stack entry, its decoded record, its pipe
    index and the cycle its operands are ready.  They hold from one
    issue to the next, so they are recomputed only while ``stale`` is
    set, which every issue sets again.
    """

    __slots__ = ("warp", "cta", "reg_ready", "pred_ready", "next_free",
                 "entry", "record", "pipe", "ready", "stale")

    def __init__(self, warp: Warp, cta: _Cta, next_free: int):
        self.warp = warp
        self.cta = cta
        self.reg_ready: Dict[int, int] = {}
        self.pred_ready: Dict[int, int] = {}
        self.next_free = next_free
        self.entry: Optional[StackEntry] = None
        self.record: Optional[_Decoded] = None
        self.pipe = 0
        self.ready = 0
        self.stale = True


class StreamingMultiprocessor:
    """Executes a queue of CTAs with cycle-approximate timing."""

    def __init__(self, sm_index: int, params: TimingParams, kernel: Kernel,
                 launch: LaunchConfig, occupancy: Occupancy,
                 global_memory: MemorySpace, resilience: ResilienceState,
                 observer=None, watchdog=None):
        self.sm_index = sm_index
        self.params = params
        self.kernel = kernel
        self.launch = launch
        self.occupancy = occupancy
        self.global_memory = global_memory
        self.resilience = resilience
        self.observer = observer
        self.watchdog = watchdog
        self.stats = SmStats()
        self.l1 = L1Cache(params.l1_lines)
        self._records: List[_Decoded] = []
        #: CTAs whose last warp was found done, not yet retired
        self._finished: List[_Cta] = []
        #: per pipe index: a heap of its units' free cycles
        self._units: List[List[int]] = []
        #: per pipe index: its earliest free cycle (the heap's top)
        self._pipe_free: List[int] = []

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
                        self.occupancy.registers_per_thread,
                        self.global_memory, shared, self.resilience)
            warp.observer = self.observer
            warps.append(warp)
        return _Cta(cta_index, warps)

    # ------------------------------------------------------------------
    def run(self, cta_indices: List[int]) -> int:
        """Run the given CTAs to completion; returns total cycles."""
        ctas_per_sm = self.occupancy.ctas_per_sm
        self._records = _decode(self.kernel)
        self._units = [[0] * self.params.pipe_units(pipe) for pipe in _PIPES]
        self._pipe_free = [0] * len(_PIPES)
        pipe_free = self._pipe_free
        finished = self._finished
        issue_width = self.params.issue_width
        watchdog = self.watchdog
        pending = list(cta_indices)
        slots: List[_Slot] = []
        ctas: List[_Cta] = []
        cycle = 0
        rr_pointer = 0

        def admit():
            while pending and len(ctas) < ctas_per_sm:
                cta = self._make_cta(pending.pop(0))
                ctas.append(cta)
                slots.extend(_Slot(warp, cta, cycle) for warp in cta.warps)

        admit()
        while slots or pending:
            issued = 0
            start = rr_pointer
            for offset, slot in enumerate(slots[start:] + slots[:start]):
                if issued >= issue_width:
                    break
                # A slot whose operands are not ready yet was fetched
                # after its last issue: not stale, done or parked.
                if slot.ready > cycle:
                    continue
                warp = slot.warp
                if warp.done or warp.at_barrier:
                    continue
                if slot.stale and (not self._fetch(slot)
                                   or slot.ready > cycle):
                    continue
                if pipe_free[slot.pipe] > cycle:
                    continue
                try:
                    info = warp.step(slot.entry)
                except KernelHalt:
                    # The halting instruction issued in this cycle.
                    self.stats.cycles = cycle + 1
                    raise
                slot.stale = True
                issued += 1
                if watchdog is not None:
                    watchdog.tick(slot.cta.cta_index, warp.warp_index)
                rr_pointer = (start + offset + 1) % len(slots)
                self._account(slot, info, cycle)
                if info.barrier:
                    slot.cta.barrier_release()

            # Retire finished CTAs and admit new ones.
            if finished:
                for cta in finished:
                    ctas.remove(cta)
                finished.clear()
                slots[:] = [slot for slot in slots if not slot.warp.done]
                rr_pointer = 0
                admit()

            if not slots and not pending:
                break
            if issued:
                cycle += 1
            else:
                if watchdog is not None:
                    watchdog.check_deadline()
                cycle = self._skip_to_next_event(slots, cycle)
        self.stats.cycles = cycle
        return cycle

    # ------------------------------------------------------------------
    def _fetch(self, slot: _Slot) -> bool:
        """Refresh a stale slot; False once its warp is found done.

        The warp found done leaves its CTA's live count.  The last one
        queues the CTA for retirement; any other may be the warp the
        rest of the CTA waits for at a barrier, so it tries a release.
        """
        entry = slot.warp.current_entry()
        if entry is None:
            cta = slot.cta
            cta.live -= 1
            if cta.live:
                cta.barrier_release()
            else:
                self._finished.append(cta)
            return False
        record = self._records[entry.pc]
        ready = slot.next_free
        reg_ready = slot.reg_ready
        for register in record.sources:
            at = reg_ready.get(register, 0)
            if at > ready:
                ready = at
        pred_ready = slot.pred_ready
        for predicate in record.predicates:
            at = pred_ready.get(predicate, 0)
            if at > ready:
                ready = at
        # Write-after-write needs no issue stall: the in-order pipeline
        # retires same-register writes in order (Section III-A), so a
        # Swap-ECC shadow issues right behind its original.  Readers wait
        # for the *latest* in-flight write via _account.
        slot.entry = entry
        slot.record = record
        slot.pipe = record.pipe
        slot.ready = ready
        slot.stale = False
        return True

    def _account(self, slot: _Slot, info, cycle: int) -> None:
        (pipe, interval, latency, _, _, dests, dest_predicate,
         l1_load) = slot.record
        stats = self.stats
        if pipe == _LSU:
            transactions = max(1, info.transactions)
            interval += self.params.lsu_cycles_per_transaction * \
                (transactions - 1)
            segments = info.segments
            if segments:
                access = self.l1.access
                hits = sum(access(segment) for segment in segments)
                if l1_load and hits == len(segments):
                    latency = self.params.l1_hit_latency
            latency += 2 * (transactions - 1)
            stats.memory_transactions += transactions
        units = self._units[pipe]
        heapq.heapreplace(units, cycle + interval)
        self._pipe_free[pipe] = units[0]
        slot.next_free = cycle + 1
        done_at = cycle + latency
        reg_ready = slot.reg_ready
        for register in dests:
            if reg_ready.get(register, 0) < done_at:
                reg_ready[register] = done_at
        if dest_predicate is not None:
            slot.pred_ready[dest_predicate] = done_at
        stats.issued += 1
        by_pipe = stats.issued_by_pipe
        name = _PIPE_NAMES[pipe]
        by_pipe[name] = by_pipe.get(name, 0) + 1

    def _skip_to_next_event(self, slots: List[_Slot], cycle: int) -> int:
        """Nothing issued: jump to the earliest cycle something could."""
        pipe_free = self._pipe_free
        earliest = None
        for slot in slots:
            warp = slot.warp
            if warp.done or warp.at_barrier:
                continue
            if slot.stale and not self._fetch(slot):
                continue
            candidate = max(slot.ready, pipe_free[slot.pipe])
            if earliest is None or candidate < earliest:
                earliest = candidate
        if earliest is None:
            if any(not slot.warp.done and slot.warp.at_barrier
                   for slot in slots):
                # Unreachable while every arrival and exit tries a
                # release; kept so a broken release cannot spin forever.
                raise SimulationError(
                    f"{self.kernel.name}: deadlock — warps stuck at a "
                    f"barrier that can never release")
            return cycle
        if earliest <= cycle:
            # Should not happen; guard against infinite loops.
            return cycle + 1
        return earliest
