"""Trial-batched tensor execution: N fault trials as one wide warp.

The scalar executor (:mod:`repro.gpu.warp` / :mod:`repro.gpu.device`)
runs one fault trial per kernel launch, which leaves campaign throughput
dominated by per-instruction Python overhead.  This module amortizes
that overhead across a whole *sweep* of trials: a :class:`TrialWarp`
stacks 32-lane *blocks* into one ``(blocks * 32,)``-wide virtual warp
that decodes each instruction once and executes it for every block with
a single numpy operation.

A trial is bit for bit the fault-free run until its fault fires, so it
needs no lanes of its own before then.  A sweep holds block 0 for the
fault-free run (*golden*) plus one block per fired, still-running
trial.  A trial *forks* at the start of the step its plan is due: its
block copies golden's registers, predicates, SIMT masks, memory and
step count, and that step's writeback strikes it.  A fork whose strike
does not fire is released after the step; a trial that finishes keeps
its outcome, step count and memory image and frees its block for reuse.
Trials that never fork inherit golden's result, and golden retires once
every trial has fired.

The design invariant is **exact per-trial equivalence with the scalar
oracle**: restricting a sweep to one trial's lanes must reproduce that
trial's scalar execution step for step — same register values, same
memory image, same detection events, same outcome bin.  The pieces that
make that hold:

* **Shared instruction stream, stacked masks.**  All blocks share one
  pc and one SIMT reconvergence stack whose masks carry the union of
  every block's lanes on a path; a block simply has no active lanes in
  steps its scalar run would not execute.  Instruction semantics inherit
  unchanged from :class:`~repro.gpu.warp.Warp`.
* **Per-block memory and fault state.**  :class:`TrialMemory` offsets
  every lane's address into its block's own image; each trial carries
  its own :class:`~repro.gpu.resilience.ResilienceState`, and strikes
  route through the scalar path's
  :func:`~repro.gpu.warp.apply_fault_strike` on the fork's lanes.
* **Per-trial termination.**  A DUE/trap, a hang (per-trial step
  budget), or a crash (out-of-bounds access, running off the end)
  removes exactly that block's lanes, launch-wide; mid-instruction halts
  suppress the block's remaining writes, as a scalar
  :class:`~repro.gpu.warp.KernelHalt` does.
* **Scalar fallback flagging.**  A barrier some blocks reach while
  others are elsewhere (cross-trial divergent ``BAR`` arrival) cannot be
  replayed on one shared stack.  Such trials — and all running trials of
  a sweep that deadlocks or dies at union level — are flagged
  ``"fallback"``; the injection engine reruns them through the scalar
  oracle, so the sweep result is exact in every case.

Shapes: registers ``(registers, blocks * 32)`` uint32, predicates
``(8, blocks * 32)`` bool, masks ``(blocks * 32,)`` bool with block
``b`` on flat lanes ``[32 * b, 32 * (b + 1))``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ecc.vectorized import READ_CORRECTED, READ_DUE
from repro.errors import SimulationError
from repro.gpu.isa import WARP_SIZE, Instruction, OperandKind
from repro.gpu.memory import MemorySpace
from repro.gpu.program import Kernel, LaunchConfig
from repro.gpu.resilience import ResilienceState, TaintTracker
from repro.gpu.warp import (DATAPATH_PIPES, StackEntry, Warp,
                            apply_fault_strike)

#: outcome labels a batched trial can finish with
TRIAL_OK = "ok"            #: ran to completion (state may hold events)
TRIAL_HALT = "halt"        #: detection halted the launch (DUE or trap)
TRIAL_HANG = "hang"        #: exceeded its per-trial step budget
TRIAL_CRASH = "crash"      #: out-of-bounds access or ran off the end
TRIAL_FALLBACK = "fallback"  #: needs a scalar rerun for exactness

#: the block the fault-free (golden) run occupies
GOLDEN = 0

_GOLDEN_LANES = slice(0, WARP_SIZE)


def _widen(lanes: np.ndarray, width: int) -> np.ndarray:
    """``lanes`` zero-padded along its last axis to ``width``."""
    wide = np.zeros(lanes.shape[:-1] + (width,), dtype=lanes.dtype)
    wide[..., :lanes.shape[-1]] = lanes
    return wide


def _block_lanes(block: int) -> slice:
    """The flat lanes of ``block``."""
    return slice(block * WARP_SIZE, (block + 1) * WARP_SIZE)


class TrialMemory:
    """One memory image per lane block, in one flat uint32 array.

    Lane ``l`` of the batched warp addresses words of block ``l // 32``
    only: every gather/scatter/atomic offsets the lane's word address by
    ``(l // 32) * words_per_block``.  Addresses are per-block word
    indices (uint32), exactly as the scalar
    :class:`~repro.gpu.memory.MemorySpace` sees them.  ``images`` holds
    each finished trial's final image, which :meth:`image_of` and
    :meth:`space_of` serve per trial.

    Bounds are *not* checked here — callers run :meth:`oob_blocks`
    first and crash the offending blocks, so by the time an access
    lands every masked lane is in range.
    """

    def __init__(self, image: np.ndarray, blocks: int,
                 name: str = "global"):
        image = np.asarray(image, dtype=np.uint32)
        if image.size == 0:
            raise SimulationError(f"{name}: empty memory image")
        self.name = name
        self.words_per_block = len(image)
        self.words = np.tile(image, blocks)
        self.images: Dict[int, np.ndarray] = {}
        self._index(blocks)

    def _index(self, blocks: int) -> None:
        self.blocks = blocks
        self._offsets = np.repeat(
            np.arange(blocks, dtype=np.int64) * self.words_per_block,
            WARP_SIZE)

    def _words_of(self, block: int) -> slice:
        base = block * self.words_per_block
        return slice(base, base + self.words_per_block)

    def grow(self, blocks: int) -> None:
        """Widen to ``blocks`` blocks; new ones stay zero until forked."""
        self.words = _widen(self.words, blocks * self.words_per_block)
        self._index(blocks)

    def fork(self, block: int) -> None:
        """Overwrite ``block``'s image with golden's."""
        self.words[self._words_of(block)] = \
            self.words[self._words_of(GOLDEN)]

    def keep(self, block: int, trial: int) -> None:
        """Record ``block``'s image now as ``trial``'s final image."""
        self.images[trial] = self.words[self._words_of(block)].copy()

    def oob_blocks(self, parts: Sequence[np.ndarray],
                   mask: np.ndarray) -> np.ndarray:
        """Blocks with any masked address outside the block image.

        ``parts`` are the per-lane address vectors of each 32-bit part
        of the access (one for narrow, two for wide); the scalar oracle
        raises :class:`~repro.errors.SimulationError` for these, so the
        batched executor bins the blocks' trials as crashed.
        """
        bad = np.zeros(self.blocks, dtype=bool)
        for part in parts:
            lane_bad = mask & (part >= self.words_per_block)
            if lane_bad.any():
                bad |= lane_bad.reshape(self.blocks, WARP_SIZE).any(axis=1)
        return np.nonzero(bad)[0]

    def gather(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Masked per-lane load (block-offset); inactive lanes read zero."""
        result = np.zeros(len(addresses), dtype=np.uint32)
        if mask.any():
            flat = addresses.astype(np.int64) + self._offsets
            result[mask] = self.words[flat[mask]]
        return result

    def scatter(self, addresses: np.ndarray, values: np.ndarray,
                mask: np.ndarray) -> None:
        """Masked per-lane store; lane order resolves write conflicts."""
        if mask.any():
            flat = addresses.astype(np.int64) + self._offsets
            self.words[flat[mask]] = values[mask]

    def atomic(self, op: str, addresses: np.ndarray, values: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
        """Per-lane read-modify-write in flat lane order; returns olds.

        Flat lane order is block-major with lanes ascending inside each
        block, so each block's restriction serializes exactly like the
        scalar :meth:`~repro.gpu.memory.MemorySpace.atomic` while
        different blocks touch disjoint words.
        """
        result = np.zeros(len(addresses), dtype=np.uint32)
        flat = addresses.astype(np.int64) + self._offsets
        for lane in np.nonzero(mask)[0]:
            address = int(flat[lane])
            old = int(self.words[address])
            value = int(values[lane])
            if op == "ADD":
                new = (old + value) & 0xFFFF_FFFF
            elif op == "MAX":
                new = max(old, value)
            elif op == "MIN":
                new = min(old, value)
            elif op == "EXCH":
                new = value
            else:
                raise SimulationError(f"unknown atomic op {op!r}")
            self.words[address] = new
            result[lane] = old
        return result

    def image_of(self, trial: int) -> np.ndarray:
        """Trial ``trial``'s final memory image, as a fresh uint32 copy."""
        return self.images[trial].copy()

    def space_of(self, trial: int) -> MemorySpace:
        """Trial ``trial``'s image wrapped as a scalar MemorySpace.

        This is what workload ``verify`` callbacks consume — they only
        ever see one trial's words, shaped exactly like a scalar run's
        global memory.
        """
        space = MemorySpace(self.words_per_block, name=self.name)
        space.words[:] = self.images[trial]
        return space


class TrialBatch:
    """The block layout, liveness, outcomes and step budgets of a sweep.

    One instance spans the whole launch (all CTAs): per-block step
    counters accumulate across CTAs exactly as the scalar watchdog's
    global budget does.  Block :data:`GOLDEN` runs the fault-free launch;
    every other block is free or ``owner``-ed by one trial.
    ``lanes_live`` is the ``(blocks * 32,)`` expansion of the
    ``(blocks,)`` ``live`` flags that execution masks AND against.
    Per-trial records carry one extra slot, index ``trials``, for golden.
    ``warps`` and ``shared`` are the current CTA's.
    """

    def __init__(self, states: Sequence[ResilienceState],
                 image: np.ndarray, max_steps: Optional[int]):
        if not states:
            raise SimulationError("run_trials needs at least one trial state")
        trials = len(states)
        first = states[0]
        golden = ResilienceState(mode=first.mode, scheme=first.scheme,
                                 halt_on_detect=first.halt_on_detect)
        self.trials = trials
        self.max_steps = max_steps
        self.states = list(states) + [golden]
        self.outcomes: List[Optional[str]] = [None] * (trials + 1)
        #: why a trial fell back to the scalar oracle (None for trials
        #: that got a tensor verdict): ``divergent_barrier``,
        #: ``union_error``, or ``union_deadlock``
        self.fallback_reasons: List[Optional[str]] = [None] * (trials + 1)
        self.steps = np.zeros(trials + 1, dtype=np.int64)
        #: trials whose fault has not fired, so whose run is golden's
        self.following = trials
        #: (cta, warp) -> {golden datapath occurrence -> due trials}
        self.pending: Dict[tuple, Dict[int, List[int]]] = {}
        for trial, state in enumerate(states):
            plan = state.fault
            if plan is not None:
                self.pending.setdefault(
                    (plan.cta_index, plan.warp_index), {}).setdefault(
                        plan.occurrence, []).append(trial)

        self.blocks = 1
        self.owner: List[Optional[int]] = [trials]
        self.free: List[int] = []
        self.live = np.ones(1, dtype=bool)
        self.lanes_live = np.ones(WARP_SIZE, dtype=bool)
        self.block_steps = np.zeros(1, dtype=np.int64)
        self.memory = TrialMemory(image, 1)
        self.shared: Optional[TrialMemory] = None
        self.warps: List["TrialWarp"] = []

    def _holders(self) -> list:
        """Everything with lane blocks: the CTA's warps and memories."""
        spaces = [self.memory, self.shared] if self.shared else [self.memory]
        return self.warps + spaces

    def fork(self, trial: int) -> int:
        """Give ``trial`` a block copying golden's lanes; returns it."""
        if not self.free:
            self._grow()
        block = self.free.pop()
        for holder in self._holders():
            holder.fork(block)
        self.owner[block] = trial
        self.live[block] = True
        self.lanes_live[_block_lanes(block)] = True
        self.block_steps[block] = self.block_steps[GOLDEN]
        self.states[trial].events = self._golden_events()
        return block

    def _golden_events(self) -> list:
        return [copy.copy(event) for event in self.states[self.trials].events]

    def _grow(self) -> None:
        """Double every lane array; the new blocks join the free list."""
        blocks = 2 * self.blocks
        self.live = _widen(self.live, blocks)
        self.lanes_live = _widen(self.lanes_live, blocks * WARP_SIZE)
        self.block_steps = _widen(self.block_steps, blocks)
        self.owner += [None] * (blocks - self.blocks)
        self.free = list(range(blocks - 1, self.blocks - 1, -1))
        for holder in self._holders():
            holder.grow(blocks)
        self.blocks = blocks

    def settle(self, trial: int, block: int) -> None:
        """After a fork's due step: keep it if its strike fired.

        A strike does not fire when its lane is inactive, a storage
        strike lands on a shadow, or the write goes to RZ; the fork is
        then released and its trial follows golden again.  Once no
        trial follows golden, golden retires.
        """
        if not self.states[trial].fault_fired:
            if self.live[block]:
                self._release(block)
            return
        self.following -= 1
        if not self.following:
            self.finish(GOLDEN, TRIAL_OK)

    def _release(self, block: int) -> None:
        self.live[block] = False
        self.lanes_live[_block_lanes(block)] = False
        if block != GOLDEN:
            self.owner[block] = None
            self.free.append(block)

    def finish(self, block: int, outcome: str,
               reason: Optional[str] = None) -> None:
        """End ``block``'s trial with ``outcome``; its lanes vanish."""
        if not self.live[block]:
            return
        trial = self.owner[block]
        self.outcomes[trial] = outcome
        if outcome == TRIAL_FALLBACK:
            self.fallback_reasons[trial] = reason
        self.steps[trial] = self.block_steps[block]
        self.memory.keep(block, trial)
        self._release(block)

    def finish_live(self, outcome: str,
                    reason: Optional[str] = None) -> None:
        """End every still-running block with ``outcome``."""
        for block in np.nonzero(self.live)[0]:
            self.finish(int(block), outcome, reason)

    def tick(self, block_active: np.ndarray) -> None:
        """Account one executed step for the active, still-live blocks.

        Mirrors the scalar :meth:`~repro.gpu.watchdog.Watchdog.tick`
        discipline: a block halted *during* the step does not tick it
        (the scalar run aborts before the tick), and a block pushed past
        ``max_steps`` finishes as a hang — the
        :class:`~repro.errors.HangError` bin of the scalar path.
        """
        ticking = block_active & self.live
        self.block_steps += ticking
        if self.max_steps is not None \
                and self.block_steps.max() > self.max_steps:
            hung = ticking & (self.block_steps > self.max_steps)
            for block in np.nonzero(hung)[0]:
                self.finish(int(block), TRIAL_HANG)

    def result(self) -> "TrialRunResult":
        """Close the sweep: per-trial records, golden's for followers."""
        self.finish_live(TRIAL_OK)
        golden = self.trials
        for trial in range(self.trials):
            if self.outcomes[trial] is None:
                self.outcomes[trial] = self.outcomes[golden]
                self.fallback_reasons[trial] = \
                    self.fallback_reasons[golden]
                self.steps[trial] = self.steps[golden]
                self.memory.images[trial] = self.memory.images[golden]
                self.states[trial].events = self._golden_events()
        return TrialRunResult(outcomes=self.outcomes[:golden],
                              states=self.states[:golden],
                              steps=self.steps[:golden],
                              memory=self.memory,
                              fallback_reasons=(
                                  self.fallback_reasons[:golden]))


class _IndexedWords(dict):
    """Taint-word map with a register → lanes index kept in sync.

    The scalar tracker scans its (tiny) word map per register access;
    a batched warp can carry one taint per struck block — dozens —
    so every mutation path of :class:`~repro.gpu.resilience.TaintTracker`
    (``words[key] = ...``, ``words.pop(key)``) maintains the index here
    and :meth:`TrialWarp._tainted_lanes_of` becomes one dict lookup.
    """

    def __init__(self):
        super().__init__()
        self.by_register: dict = {}

    def __setitem__(self, key, value):
        if key not in self:
            self.by_register.setdefault(key[0], set()).add(key[1])
        super().__setitem__(key, value)

    def __delitem__(self, key):
        super().__delitem__(key)
        self._drop(key)

    def pop(self, key, *default):
        had = key in self
        value = super().pop(key, *default)
        if had:
            self._drop(key)
        return value

    def drop_lanes(self, lanes: slice) -> None:
        """Forget every taint on a flat lane in ``lanes``."""
        for key in [key for key in self
                    if lanes.start <= key[1] < lanes.stop]:
            del self[key]

    def _drop(self, key):
        lanes = self.by_register.get(key[0])
        if lanes is not None:
            lanes.discard(key[1])
            if not lanes:
                del self.by_register[key[0]]


class TrialWarp(Warp):
    """One warp position executed for every block of a sweep at once.

    State vectors are ``(blocks * 32,)`` wide; flat lane ``l`` belongs
    to block ``l // 32`` at local lane ``l % 32``.  Instruction
    semantics inherit from :class:`~repro.gpu.warp.Warp` unchanged —
    only the trial-aware pieces are overridden: forking due trials off
    golden, per-block detection halts, per-block crash/hang termination,
    block-local SHFL lane arithmetic, and block-offset memory access.
    ``datapath_counter`` counts golden's datapath writes in this warp.
    """

    def __init__(self, kernel: Kernel, cta_index: int, warp_index: int,
                 thread_count: int, threads_per_cta: int, grid_ctas: int,
                 register_count: int, batch: TrialBatch):
        # One fresh 32-lane warp under golden's state, tiled per block.
        super().__init__(kernel, cta_index, warp_index, thread_count,
                         threads_per_cta, grid_ctas, register_count,
                         batch.memory, batch.shared,
                         batch.states[batch.trials])
        self.resilience = None  # per-block states replace the shared one
        self.batch = batch
        self.width = batch.blocks * WARP_SIZE
        self.regs = np.tile(self.regs, batch.blocks)
        self.preds = np.tile(self.preds, batch.blocks)
        self.alive = np.tile(self.alive, batch.blocks) & batch.lanes_live
        self.stack = [StackEntry(0, self.alive.copy(), None)]
        self.special = {name: np.tile(values, batch.blocks)
                        for name, values in self.special.items()}
        if self.taint is not None:
            self.taint.words = _IndexedWords()
        #: this warp's pending plans: golden occurrence -> due trials
        self.pending = batch.pending.get((cta_index, warp_index), {})
        #: (trial, block) pairs forked for the step being executed
        self._forks: List[tuple] = []

    # ------------------------------------------------------------------
    # block layout
    # ------------------------------------------------------------------
    def grow(self, blocks: int) -> None:
        """Widen every lane array to ``blocks`` blocks (new ones inert)."""
        self.width = blocks * WARP_SIZE
        self.regs = _widen(self.regs, self.width)
        self.preds = _widen(self.preds, self.width)
        self.alive = _widen(self.alive, self.width)
        for entry in self.stack:
            entry.mask = _widen(entry.mask, self.width)
        self.special = {name: np.tile(values[:WARP_SIZE], blocks)
                        for name, values in self.special.items()}

    def fork(self, block: int) -> None:
        """Make ``block``'s lanes a taint-free copy of golden's."""
        lanes = _block_lanes(block)
        if self.taint is not None:
            self.taint.words.drop_lanes(lanes)
        for state in (self.regs, self.preds, self.alive):
            state[..., lanes] = state[..., _GOLDEN_LANES]
        for entry in self.stack:
            entry.mask[lanes] = entry.mask[_GOLDEN_LANES]

    def _blocks_of(self, mask: np.ndarray) -> np.ndarray:
        """Block indices with at least one set lane in ``mask``."""
        return np.nonzero(mask.reshape(-1, WARP_SIZE).any(axis=1))[0]

    def _guard(self, instruction: Instruction, active: np.ndarray,
               lanes: slice = slice(None)) -> np.ndarray:
        """``active`` restricted by the instruction's predicate guard."""
        if instruction.predicate is None:
            return active
        pred_mask = self.preds[instruction.predicate][lanes]
        if instruction.predicate_negated:
            pred_mask = ~pred_mask
        return active & pred_mask

    # ------------------------------------------------------------------
    # per-block liveness plumbing
    # ------------------------------------------------------------------
    def _tainted_lanes_of(self, register: int) -> list:
        """Indexed lookup into the sweep-wide taint map (vs. a scan)."""
        lanes = self.taint.words.by_register.get(register)
        return list(lanes) if lanes else []

    def _writeback_mask(self, mask: np.ndarray) -> np.ndarray:
        """Drop lanes of blocks halted earlier in this instruction."""
        return mask & self.batch.lanes_live

    def current_entry(self) -> Optional[StackEntry]:
        """Pop finished entries; return the runnable top (None when done).

        Running off the end of the kernel — the scalar ``missing EXIT?``
        :class:`~repro.errors.SimulationError` — crashes exactly the
        blocks whose lanes sit in the offending entry; everyone else
        keeps executing.
        """
        while self.stack:
            top = self.stack[-1]
            if top.reconv is not None and top.pc == top.reconv:
                self.stack.pop()
                continue
            mask = top.mask & self.alive & self.batch.lanes_live
            if not mask.any():
                self.stack.pop()
                continue
            if top.pc >= len(self.kernel.instructions):
                for block in self._blocks_of(mask):
                    self.batch.finish(int(block), TRIAL_CRASH)
                continue
            self._active = mask
            return top
        self.done = True
        return None

    # ------------------------------------------------------------------
    # per-block detection and fault injection
    # ------------------------------------------------------------------
    def _check_tainted_read(self, registers, mask) -> None:
        taint = self.taint
        if not taint or not taint.words:
            return
        live_mask = mask & self.batch.lanes_live
        keys = [(register, lane)
                for register in registers
                for lane in sorted(
                    lane for lane in self._tainted_lanes_of(register)
                    if live_mask[lane])]
        if not keys:
            return
        decoded = taint.read_many(keys)
        for (register, lane), status, data in zip(keys, decoded.status,
                                                  decoded.data):
            block = lane // WARP_SIZE
            if not self.batch.live[block]:
                # This block halted at an earlier key of the same read;
                # its scalar run never reaches the later lanes.
                continue
            state = self.batch.states[self.batch.owner[block]]
            if status == READ_DUE:
                state.record("due", self.cta_index, self.warp_index,
                             self.pc, f"R{register} lane {lane % WARP_SIZE}")
                if state.halt_on_detect:
                    self.batch.finish(block, TRIAL_HALT)
            elif status == READ_CORRECTED:
                state.record("corrected", self.cta_index, self.warp_index,
                             self.pc, f"R{register} lane {lane % WARP_SIZE}")
                self.regs[register][lane] = int(data) & 0xFFFF_FFFF

    def _maybe_inject_fault(self, instruction: Instruction,
                            values: np.ndarray, mask: np.ndarray,
                            is_64bit: bool):
        """Strike each block forked for this step with its trial's plan.

        The strike — at most once per trial per run — delegates to the
        shared scalar :func:`~repro.gpu.warp.apply_fault_strike` on the
        fork's slice, keying taints and protections by flat lane.
        """
        if not self._forks:
            return values, set()
        role = instruction.meta.get("role")
        dest = instruction.dest.value
        protected = set()
        values = values.copy()
        for trial, block in self._forks:
            state = self.batch.states[trial]
            lanes = _block_lanes(block)
            values[lanes], keys = apply_fault_strike(
                state.fault, state, self.taint, role, dest, values[lanes],
                mask[lanes], is_64bit, base=lanes.start)
            protected |= keys
        return values, protected

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[np.ndarray]:
        """Execute one instruction for every live block at once.

        Forks the trials whose plan is due on this instruction first.
        Returns the ``(blocks,)`` boolean vector of blocks that had
        active lanes this step (the scalar runs that would have called
        ``step()`` here) — the caller ticks those blocks' budgets — or
        None when the warp has finished.
        """
        entry = self.current_entry()
        if entry is None:
            return None
        pc = entry.pc
        self.pc = pc
        instruction = self.kernel.instructions[pc]
        spec = instruction.spec
        datapath = spec.writes_dest and spec.pipe.value in DATAPATH_PIPES
        batch = self.batch
        # An unforked trial's scalar counter is golden's, so its plan is
        # due exactly when golden's lanes run this write at its occurrence.
        if (datapath and self.datapath_counter in self.pending
                and batch.live[GOLDEN]
                and self._guard(instruction,
                                entry.mask[_GOLDEN_LANES]
                                & self.alive[_GOLDEN_LANES],
                                _GOLDEN_LANES).any()):
            self._forks = [(trial, batch.fork(trial)) for trial in
                           self.pending.pop(self.datapath_counter)]
            self._active = entry.mask & self.alive & batch.lanes_live
        active = self._active
        block_active = active.reshape(-1, WARP_SIZE).any(axis=1)
        exec_mask = self._guard(instruction, active)

        op = instruction.op
        if op == "BRA":
            self._exec_branch(entry, instruction, active, exec_mask)
        elif op == "EXIT":
            self.alive &= ~exec_mask
            entry.pc = pc + 1
        elif op == "BAR":
            entry.pc = pc + 1
            self._exec_barrier(active)
        elif op == "BPT":
            entry.pc = pc + 1
            for block in self._blocks_of(exec_mask & batch.lanes_live):
                block = int(block)
                state = batch.states[batch.owner[block]]
                state.record("trap", self.cta_index, self.warp_index, pc,
                             "BPT")
                if state.halt_on_detect:
                    batch.finish(block, TRIAL_HALT)
        elif op == "NOP":
            entry.pc = pc + 1
        else:
            entry.pc = pc + 1
            if exec_mask.any():
                self._exec_data(instruction, exec_mask)

        # Golden halted mid-instruction never reaches the scalar counter
        # increment, so only a still-live golden advances.
        if datapath and batch.live[GOLDEN] \
                and exec_mask[_GOLDEN_LANES].any():
            self.datapath_counter += 1
        if self._forks:
            for trial, block in self._forks:
                batch.settle(trial, block)
            self._forks = []
        return block_active

    def _exec_barrier(self, active: np.ndarray) -> None:
        """Arrive at a BAR; flag cross-trial divergent arrivals.

        A block whose lanes are alive in this warp but absent from the
        arriving stack entry has *not* reached this barrier in its own
        scalar schedule — blocking the shared warp would synchronize it
        spuriously.  Those blocks' trials are handed to the scalar
        oracle (``fallback``); blocks arriving with all their live
        lanes (or with none left in this warp) block exactly as scalar
        does.
        """
        alive_blocks = (self.alive & self.batch.lanes_live).reshape(
            -1, WARP_SIZE).any(axis=1)
        arrived = active.reshape(-1, WARP_SIZE).any(axis=1)
        divergent = alive_blocks & ~arrived & self.batch.live
        for block in np.nonzero(divergent)[0]:
            self.batch.finish(int(block), TRIAL_FALLBACK,
                              reason="divergent_barrier")
        self.at_barrier = True

    def _exec_shfl(self, instruction: Instruction,
                   mask: np.ndarray) -> None:
        """Warp shuffle with lane arithmetic inside each block."""
        value = self.read_u32(instruction.sources[0], mask)
        amount = self.read_u32(instruction.sources[1],
                               mask).astype(np.int64)
        flat = np.arange(self.width, dtype=np.int64)
        local = flat % WARP_SIZE
        base = flat - local
        modifiers = instruction.meta.get("modifiers", [])
        if "BFLY" in modifiers:
            source_local = local ^ amount
        elif "UP" in modifiers:
            source_local = local - amount
        elif "DOWN" in modifiers:
            source_local = local + amount
        else:  # IDX
            source_local = amount
        valid = (source_local >= 0) & (source_local < WARP_SIZE)
        source_lane = np.where(valid, base + source_local, flat)
        gathered = value[source_lane]
        src_active = mask[source_lane]
        result = np.where(valid & src_active, gathered, value)
        self.write_result(instruction, result.astype(np.uint32), mask,
                          False)

    def _exec_memory(self, instruction: Instruction,
                     mask: np.ndarray) -> int:
        """Block-offset memory access with per-block crash containment.

        An out-of-bounds lane address — the scalar oracle's
        :class:`~repro.errors.SimulationError` — crashes only that
        block's trial: its lanes drop out before any word is read or
        written, and every in-range block proceeds.
        """
        op = instruction.op
        srcs = instruction.sources
        modifiers = instruction.meta.get("modifiers", [])
        space = self.global_memory if op in ("LDG", "STG", "ATOM") \
            else self.shared_memory
        if space is None:
            raise SimulationError(f"{op} executed without shared memory")
        wide = "64" in modifiers or (
            instruction.dest is not None
            and instruction.dest.kind is OperandKind.REGISTER64) or (
            op in ("STG", "STS")
            and srcs[1].kind is OperandKind.REGISTER64)

        if op in ("STG", "STS", "ATOM"):
            address_operand, value_operand = srcs[0], srcs[1]
        else:
            address_operand, value_operand = srcs[0], None
        addresses = self.read_u32(address_operand, mask).astype(np.int64) \
            + instruction.offset
        mask = mask & self.batch.lanes_live  # address read may halt blocks
        checked = np.where(mask, addresses, 0).astype(np.uint32)
        parts = [checked]
        if wide:
            parts.append((checked + 1).astype(np.uint32))
        for block in space.oob_blocks(parts, mask):
            self.batch.finish(int(block), TRIAL_CRASH)
        mask = mask & self.batch.lanes_live
        if not mask.any():
            return 0

        if op in ("LDG", "LDS"):
            low = space.gather(checked, mask)
            if wide:
                high = space.gather(parts[1], mask)
                value = low.astype(np.uint64) | (
                    high.astype(np.uint64) << np.uint64(32))
                self.write_result(instruction, value, mask, True)
            else:
                self.write_result(instruction, low, mask, False)
        elif op in ("STG", "STS"):
            if wide:
                value = self.read_u64(value_operand, mask)
                mask = mask & self.batch.lanes_live
                space.scatter(checked,
                              (value & np.uint64(0xFFFF_FFFF)).astype(
                                  np.uint32), mask)
                space.scatter(parts[1],
                              (value >> np.uint64(32)).astype(np.uint32),
                              mask)
            else:
                value = self.read_u32(value_operand, mask)
                mask = mask & self.batch.lanes_live
                space.scatter(checked, value, mask)
        else:  # ATOM
            atom_op = next(m for m in modifiers
                           if m in ("ADD", "MAX", "MIN", "EXCH"))
            value = self.read_u32(value_operand, mask)
            mask = mask & self.batch.lanes_live
            old = space.atomic(atom_op, checked, value, mask)
            self.write_result(instruction, old, mask, False)
        return 0


@dataclass
class TrialRunResult:
    """What one batched launch reports back, per trial.

    ``outcomes[t]`` is one of the ``TRIAL_*`` labels; ``states[t]`` is
    the trial's own resilience state (events, ``fault_fired``);
    ``steps[t]`` the functional steps its scalar run would have
    executed; ``memory.space_of(t)`` its final global-memory image.
    Trials labelled :data:`TRIAL_FALLBACK` carry no verdict — rerun
    them through the scalar oracle.
    """

    outcomes: List[str]
    states: List[ResilienceState]
    steps: np.ndarray
    memory: TrialMemory
    #: per-trial fallback attribution (``divergent_barrier`` /
    #: ``union_error`` / ``union_deadlock``; None for decided trials)
    fallback_reasons: List[Optional[str]]


@np.errstate(all="ignore")
def run_trials(kernel: Kernel, launch: LaunchConfig, image: np.ndarray,
               states: Sequence[ResilienceState],
               max_steps: Optional[int] = 50_000_000,
               register_count: Optional[int] = None) -> TrialRunResult:
    """Run ``len(states)`` independent fault trials as one tensor sweep.

    The batched counterpart of calling
    :func:`repro.gpu.device.run_functional` once per trial on a fresh
    copy of ``image`` (a ``(words,)`` uint32 launch memory): CTAs run
    sequentially, warps within a CTA round-robin until blocked, and
    every instruction executes once for the whole ``(blocks * 32)``-wide
    virtual warp of golden plus the running forks.  Each state must be
    fresh (unfired, eventless) and all must share one resilience mode
    and ``halt_on_detect`` (trials that never fork inherit golden's
    halting); in ``swap`` mode the first state's scheme decodes every
    block's taints (schemes are stateless codecs, so sharing one is
    observationally identical to the scalar path's per-trial instances).

    Exactness contract: every returned trial matches its scalar oracle
    run bit for bit — outcome bin, detection events, memory image, and
    step count — except trials labelled ``fallback``, which the caller
    must rerun scalar to get a verdict (cross-trial divergent barrier
    arrivals and union-level deadlocks/errors take that route rather
    than guessing).
    """
    kernel.validate()
    states = list(states)
    for state in states:
        if (state.mode, state.halt_on_detect) != \
                (states[0].mode, states[0].halt_on_detect):
            raise SimulationError(
                "all trial states must share one resilience mode and "
                "halt_on_detect")
        if state.fault_fired or state.events:
            raise SimulationError(
                "trial states must be fresh (unfired, no events)")
    batch = TrialBatch(states, image, max_steps)
    if register_count is None:
        register_count = max(kernel.register_count(), 1)

    for cta_index in range(launch.grid_ctas):
        if not batch.live.any():
            break
        try:
            _run_cta(kernel, launch, cta_index, batch, register_count)
        except SimulationError:
            # A union-level failure (unimplemented opcode, deadlock
            # shape the shared stack cannot attribute): hand every
            # still-running trial to the scalar oracle.
            batch.finish_live(TRIAL_FALLBACK, reason="union_error")
            break
    return batch.result()


def _run_cta(kernel: Kernel, launch: LaunchConfig, cta_index: int,
             batch: TrialBatch, register_count: int) -> None:
    """One CTA of the batched launch (mirrors ``run_functional_cta``)."""
    batch.shared = None
    batch.warps = []
    if launch.shared_words_per_cta:
        batch.shared = TrialMemory(
            np.zeros(launch.shared_words_per_cta, dtype=np.uint32),
            batch.blocks, name=f"shared.cta{cta_index}")
    warps = batch.warps
    threads_left = launch.threads_per_cta
    for warp_index in range(launch.warps_per_cta):
        count = min(WARP_SIZE, threads_left)
        threads_left -= count
        warps.append(TrialWarp(kernel, cta_index, warp_index, count,
                               launch.threads_per_cta, launch.grid_ctas,
                               register_count, batch))
    while True:
        progressed = False
        barrier_waiters = 0
        for warp in warps:
            if warp.done:
                continue
            if warp.at_barrier:
                barrier_waiters += 1
                continue
            while not warp.done and not warp.at_barrier:
                block_active = warp.step()
                if block_active is None:
                    break
                progressed = True
                batch.tick(block_active)
                if not batch.live.any():
                    return
        if all(warp.done for warp in warps):
            return
        if not progressed:
            released = False
            if barrier_waiters:
                live_warps = [w for w in warps if not w.done]
                if live_warps and all(w.at_barrier for w in live_warps):
                    for warp in live_warps:
                        warp.at_barrier = False
                    released = True
            if not released:
                # The union deadlocked; per-trial attribution is not
                # sound here, so every running trial goes to the oracle.
                batch.finish_live(TRIAL_FALLBACK,
                                  reason="union_deadlock")
                return
