"""Warp-level functional execution with SIMT divergence.

A :class:`Warp` executes one instruction per :meth:`step` across its 32
lanes (vectorized with numpy).  Divergence uses a post-dominator SIMT
stack: every potentially-divergent branch carries a reconvergence point
(explicit ``reconv=`` label, defaulting to the fall-through instruction,
which is correct for backward loop branches); entries pop when execution
reaches their reconvergence pc.

This module is the *scalar* (one-trial) executor and the exact-
equivalence oracle for the trial-batched tensor executor in
:mod:`repro.gpu.tensor`, which stacks 32-lane blocks of independent
fault trials into one ``(blocks * 32)``-wide virtual warp.  The pieces
both executors share live here as module-level helpers: the opcode
lambda tables, the fault-strike application (:func:`apply_fault_strike`),
and the single-pass memory-access profiles
(:func:`global_access_profile`, :func:`shared_bank_conflicts`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.ecc.vectorized import READ_CORRECTED, READ_DUE
from repro.errors import SimulationError
from repro.gpu.isa import PT, RZ, WARP_SIZE, Instruction, Operand, OperandKind
from repro.gpu.memory import SEGMENT_WORDS, MemorySpace
from repro.gpu.program import Kernel
from repro.gpu.resilience import ResilienceState, TaintTracker


#: pipes whose register-writing instructions advance the datapath
#: occurrence counter (the fault-injection window of a FaultPlan)
DATAPATH_PIPES = ("alu", "fma32", "fma64", "sfu")


class KernelHalt(Exception):
    """Raised to stop a launch after a detected error (DUE or trap)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class StackEntry:
    """One SIMT reconvergence-stack entry: a pc, its mask, its join pc.

    ``mask`` is a boolean lane vector — ``(32,)`` in the scalar executor,
    ``(blocks * 32,)`` in the trial-batched one, where one entry tracks
    the union of every block's lanes walking this path.
    """

    pc: int
    mask: np.ndarray
    reconv: Optional[int]


@dataclass
class StepInfo:
    """What one executed instruction did (for timing and profiling)."""

    instruction: Instruction
    pc: int
    active_lanes: int
    transactions: int = 0
    barrier: bool = False
    exited: bool = False
    #: 128B global-memory segments touched (for the SM cache model)
    segments: tuple = ()


class Warp:
    """One warp's architectural state and executor.

    All lane vectors are ``width`` wide — 32 here; ``blocks * 32`` in the
    :class:`repro.gpu.tensor.TrialWarp` subclass, which reuses the
    execution methods below unchanged across its stacked blocks.
    """

    #: lanes per state vector (overridden per instance by TrialWarp)
    width: int = WARP_SIZE

    def __init__(self, kernel: Kernel, cta_index: int, warp_index: int,
                 thread_count: int, threads_per_cta: int, grid_ctas: int,
                 register_count: int, global_memory: MemorySpace,
                 shared_memory: Optional[MemorySpace],
                 resilience: ResilienceState):
        self.kernel = kernel
        self.cta_index = cta_index
        self.warp_index = warp_index
        self.global_memory = global_memory
        self.shared_memory = shared_memory
        self.resilience = resilience

        self.regs = np.zeros((max(register_count, 1), WARP_SIZE),
                             dtype=np.uint32)
        self.preds = np.zeros((8, WARP_SIZE), dtype=bool)
        self.preds[PT] = True
        self.alive = np.zeros(WARP_SIZE, dtype=bool)
        self.alive[:thread_count] = True
        self.stack: List[StackEntry] = [
            StackEntry(0, self.alive.copy(), None)]
        self.at_barrier = False
        self.done = False
        #: pc of the instruction executing (what detection events log)
        self.pc = -1
        self.datapath_counter = 0
        self.taint: Optional[TaintTracker] = (
            TaintTracker(resilience.scheme)
            if resilience.mode == "swap" else None)

        lanes = np.arange(WARP_SIZE, dtype=np.uint32)
        self.special = {
            "SR_TID": (warp_index * WARP_SIZE + lanes).astype(np.uint32),
            "SR_CTAID": np.full(WARP_SIZE, cta_index, dtype=np.uint32),
            "SR_NTID": np.full(WARP_SIZE, threads_per_cta, dtype=np.uint32),
            "SR_NCTAID": np.full(WARP_SIZE, grid_ctas, dtype=np.uint32),
            "SR_LANE": lanes.copy(),
        }
        #: optional observer with on_step(warp, info)
        self.observer = None
        self._last_segments: tuple = ()

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------
    def current_entry(self) -> Optional[StackEntry]:
        """Pop finished entries; return the runnable top (None when done)."""
        while self.stack:
            top = self.stack[-1]
            if top.reconv is not None and top.pc == top.reconv:
                self.stack.pop()
                continue
            if not np.count_nonzero(top.mask & self.alive):
                self.stack.pop()
                continue
            if top.pc >= len(self.kernel.instructions):
                raise SimulationError(
                    f"{self.kernel.name}: warp ran off the end "
                    f"(pc={top.pc}); missing EXIT?")
            return top
        self.done = True
        return None

    # ------------------------------------------------------------------
    # register access
    # ------------------------------------------------------------------
    def _check_tainted_read(self, registers: Tuple[int, ...],
                            mask: np.ndarray) -> None:
        taint = self.taint
        if not taint or not taint.words:
            return
        # Gather every tainted lane this read touches and decode them all
        # in one vectorized register-file pass (read order: register as
        # listed, then lane ascending — matching the scalar read port).
        keys = [(register, lane)
                for register in registers
                for lane in sorted(
                    lane for lane in self._tainted_lanes_of(register)
                    if mask[lane])]
        if not keys:
            return
        batch = taint.read_many(keys)
        for (register, lane), status, data in zip(keys, batch.status,
                                                  batch.data):
            if status == READ_DUE:
                self.resilience.record("due", self.cta_index,
                                       self.warp_index, self.pc,
                                       f"R{register} lane {lane}")
                if self.resilience.halt_on_detect:
                    raise KernelHalt("ecc-due")
            elif status == READ_CORRECTED:
                self.resilience.record("corrected", self.cta_index,
                                       self.warp_index, self.pc,
                                       f"R{register} lane {lane}")
                self.regs[register][lane] = int(data) & 0xFFFF_FFFF
            # OK: the (possibly wrong) stored data flows on.

    def read_u32(self, operand: Operand, mask: np.ndarray) -> np.ndarray:
        """Read ``operand`` as a ``(32,)`` uint32 lane vector.

        Register reads of tainted lanes run the scheme decoder first
        (:meth:`_check_tainted_read`), which is where Swap-ECC detection
        and in-place correction happen.
        """
        if operand.kind is OperandKind.IMMEDIATE:
            return np.full(self.width, operand.value & 0xFFFF_FFFF,
                           dtype=np.uint32)
        if operand.kind is OperandKind.SPECIAL:
            return self.special[operand.name]
        if operand.kind is OperandKind.REGISTER:
            if operand.value == RZ:
                return np.zeros(self.width, dtype=np.uint32)
            self._check_tainted_read((operand.value,), mask)
            return self.regs[operand.value]
        raise SimulationError(f"cannot read {operand} as 32-bit value")

    def read_f32(self, operand: Operand, mask: np.ndarray) -> np.ndarray:
        """Read ``operand`` as a ``(32,)`` float32 lane vector."""
        return self.read_u32(operand, mask).view(np.float32)

    def read_u64(self, operand: Operand, mask: np.ndarray) -> np.ndarray:
        """Read a 64-bit operand (even register pair) as ``(32,)`` uint64."""
        if operand.kind is OperandKind.REGISTER and operand.value == RZ:
            return np.zeros(self.width, dtype=np.uint64)
        if operand.kind is OperandKind.REGISTER64:
            if operand.value == RZ:
                return np.zeros(self.width, dtype=np.uint64)
            self._check_tainted_read((operand.value, operand.value + 1),
                                     mask)
            low = self.regs[operand.value].astype(np.uint64)
            high = self.regs[operand.value + 1].astype(np.uint64)
            return low | (high << np.uint64(32))
        raise SimulationError(f"cannot read {operand} as 64-bit value")

    def read_f64(self, operand: Operand, mask: np.ndarray) -> np.ndarray:
        """Read a 64-bit operand (even register pair) as ``(32,)`` float64."""
        return self.read_u64(operand, mask).view(np.float64)

    def read_pred(self, index: int) -> np.ndarray:
        """The ``(32,)`` boolean lane vector of predicate ``index``."""
        return self.preds[index]

    def _write_lanes(self, register: int, values: np.ndarray,
                     mask: np.ndarray) -> None:
        if register == RZ:
            return
        np.copyto(self.regs[register], values, where=mask)

    def _tainted_lanes_of(self, register: int) -> List[int]:
        """Lanes of ``register`` currently tainted (any order).

        The scalar tracker holds at most a couple of taints, so a scan
        of the word map is fine here; the trial-batched executor — whose
        map carries one taint per struck block — overrides this with an
        indexed lookup.
        """
        return [lane for (tainted_register, lane) in self.taint.words
                if tainted_register == register]

    def _writeback_mask(self, mask: np.ndarray) -> np.ndarray:
        """Lanes allowed to commit architectural state.

        The scalar executor commits every execution-masked lane; the
        trial-batched executor overrides this to additionally drop lanes
        of blocks halted (DUE/trap/crash) earlier in the same
        instruction, mirroring how a scalar :class:`KernelHalt` aborts
        before the remaining writes of that instruction happen.
        """
        return mask

    # ------------------------------------------------------------------
    # writeback with SwapCodes roles
    # ------------------------------------------------------------------
    def write_result(self, instruction: Instruction, values: np.ndarray,
                     mask: np.ndarray, is_64bit: bool) -> None:
        """Write an instruction result honouring its resilience role."""
        role = instruction.meta.get("role")
        dest = instruction.dest
        if dest is None or dest.value == RZ:
            return
        mask = self._writeback_mask(mask)
        values, protected = self._maybe_inject_fault(
            instruction, values, mask, is_64bit)
        if is_64bit:
            low = (values & np.uint64(0xFFFF_FFFF)).astype(np.uint32)
            high = (values >> np.uint64(32)).astype(np.uint32)
            parts = [(dest.value, low), (dest.value + 1, high)]
        else:
            parts = [(dest.value, values.astype(np.uint32))]

        if self.taint is not None and role == "shadow":
            # Masked writeback: check bits only.  Any mismatch against the
            # stored data means a fault hit this shadow's computation (or
            # the original's data is still wrong, in which case the check
            # bits now encode the recomputed value and the mismatch is
            # caught at the next read).  The fault-free fast path is one
            # vectorized compare per register — the per-lane Python loop
            # only runs over the (rare) tainted or mismatching lanes.
            words = self.taint.words
            for register, part in parts:
                stored = self.regs[register]
                for lane in list(self._tainted_lanes_of(register)):
                    if mask[lane]:
                        self.taint.on_shadow_write(register, lane,
                                                   int(part[lane]))
                differs = mask & (stored != part)
                if differs.any():
                    for lane in np.nonzero(differs)[0]:
                        lane = int(lane)
                        if (register, lane) not in words:
                            self.taint.taint_check_only(
                                register, lane, int(stored[lane]),
                                int(part[lane]))
            return

        for register, part in parts:
            self._write_lanes(register, part, mask)
            if self.taint is not None and self.taint.words:
                # Iterate the (small) taint map, not all 32 lanes.
                for lane in list(self._tainted_lanes_of(register)):
                    if mask[lane] and (register, lane) not in protected:
                        self.taint.on_full_write(register, lane)

    def _maybe_inject_fault(self, instruction: Instruction,
                            values: np.ndarray, mask: np.ndarray,
                            is_64bit: bool):
        """Apply a pending FaultPlan to this result; returns (values, keys).

        Placement gating (cta/warp/occurrence/pipe) lives here; the
        strike itself is :func:`apply_fault_strike`, shared with the
        trial-batched executor.  ``keys`` is the set of freshly-tainted
        (register, lane) pairs the writeback must not clear.
        """
        state = self.resilience
        plan = state.fault
        if (plan is None or state.fault_fired
                or plan.cta_index != self.cta_index
                or plan.warp_index != self.warp_index
                or self.datapath_counter != plan.occurrence
                or instruction.spec.pipe.value not in DATAPATH_PIPES):
            return values, set()
        return apply_fault_strike(plan, state, self.taint,
                                  instruction.meta.get("role"),
                                  instruction.dest.value, values, mask,
                                  is_64bit)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self, entry: Optional[StackEntry] = None
             ) -> Optional[StepInfo]:
        """Execute one instruction; None when the warp has finished.

        ``entry`` is the runnable stack top as :meth:`current_entry` just
        returned it (the timed SM passes the one its slot fetched, so the
        stack is not walked twice); without it, the step fetches it.
        Callers run steps under ``np.errstate(all="ignore")``: lane
        arithmetic wraps and produces inf/NaN as the hardware does.
        """
        if entry is None:
            entry = self.current_entry()
            if entry is None:
                return None
        pc = entry.pc
        self.pc = pc
        instruction = self.kernel.instructions[pc]
        active = entry.mask & self.alive
        if instruction.predicate is not None:
            pred_mask = self.preds[instruction.predicate]
            if instruction.predicate_negated:
                pred_mask = ~pred_mask
            exec_mask = active & pred_mask
        else:
            exec_mask = active

        lanes = int(np.count_nonzero(exec_mask))
        info = StepInfo(instruction, pc, lanes)
        op = instruction.op
        spec = instruction.spec

        if op == "BRA":
            self._exec_branch(entry, instruction, active, exec_mask)
        elif op == "EXIT":
            self.alive &= ~exec_mask
            entry.pc = pc + 1
            info.exited = True
        elif op == "BAR":
            self.at_barrier = True
            entry.pc = pc + 1
            info.barrier = True
        elif op == "BPT":
            entry.pc = pc + 1
            if lanes:
                self.resilience.record("trap", self.cta_index,
                                       self.warp_index, pc, "BPT")
                if self.resilience.halt_on_detect:
                    raise KernelHalt("trap")
        elif op == "NOP":
            entry.pc = pc + 1
        else:
            entry.pc = pc + 1
            if lanes:
                self._last_segments = ()
                info.transactions = self._exec_data(instruction, exec_mask)
                info.segments = self._last_segments

        if spec.writes_dest and lanes \
                and spec.pipe.value in DATAPATH_PIPES:
            self.datapath_counter += 1
        if self.observer is not None:
            self.observer.on_step(self, info)
        return info

    def _exec_branch(self, entry: StackEntry, instruction: Instruction,
                     active: np.ndarray, taken: np.ndarray) -> None:
        pc = entry.pc
        target = self.kernel.labels[instruction.target]
        not_taken = active & ~taken
        if not taken.any():
            entry.pc = pc + 1
            return
        if not not_taken.any():
            entry.pc = target
            return
        if instruction.reconverge is not None:
            reconv = self.kernel.labels[instruction.reconverge]
        else:
            reconv = pc + 1
        entry.pc = reconv
        self.stack.append(StackEntry(pc + 1, not_taken.copy(), reconv))
        self.stack.append(StackEntry(target, taken.copy(), reconv))

    def _exec_data(self, instruction: Instruction,
                   mask: np.ndarray) -> int:
        """Execute a non-control instruction; returns memory transactions."""
        op = instruction.op
        srcs = instruction.sources
        if op in _INT_BINOPS:
            a = self.read_u32(srcs[0], mask)
            b = self.read_u32(srcs[1], mask)
            self.write_result(instruction, _INT_BINOPS[op](a, b), mask, False)
        elif op == "NOT":
            a = self.read_u32(srcs[0], mask)
            self.write_result(instruction, ~a, mask, False)
        elif op == "MOV":
            if instruction.dest.kind is OperandKind.REGISTER64:
                self.write_result(instruction, self.read_u64(srcs[0], mask),
                                  mask, True)
            else:
                self.write_result(instruction,
                                  self.read_u32(srcs[0], mask).copy(), mask,
                                  False)
        elif op == "IMAD":
            a = self.read_u32(srcs[0], mask).astype(np.uint64)
            b = self.read_u32(srcs[1], mask).astype(np.uint64)
            c = self.read_u32(srcs[2], mask).astype(np.uint64)
            result = ((a * b + c) & np.uint64(0xFFFF_FFFF)).astype(np.uint32)
            self.write_result(instruction, result, mask, False)
        elif op in _FP32_OPS:
            args = [self.read_f32(src, mask) for src in srcs]
            result = _FP32_OPS[op](*args).astype(np.float32)
            self.write_result(instruction, result.view(np.uint32), mask, False)
        elif op in _FP64_OPS:
            args = [self.read_f64(src, mask) for src in srcs]
            result = _FP64_OPS[op](*args).astype(np.float64)
            self.write_result(instruction, result.view(np.uint64), mask, True)
        elif op == "I2F":
            value = self.read_u32(srcs[0], mask).view(np.int32)
            self.write_result(instruction,
                              value.astype(np.float32).view(np.uint32),
                              mask, False)
        elif op == "F2I":
            value = self.read_f32(srcs[0], mask)
            clipped = np.clip(np.nan_to_num(value), -2**31, 2**31 - 1)
            self.write_result(instruction,
                              clipped.astype(np.int32).view(np.uint32), mask,
                              False)
        elif op in ("ISETP", "FSETP", "DSETP"):
            self._exec_setp(instruction, mask)
        elif op == "SEL":
            a = self.read_u32(srcs[0], mask)
            b = self.read_u32(srcs[1], mask)
            chooser = self.preds[srcs[2].value]
            self.write_result(instruction,
                              np.where(chooser, a, b).astype(np.uint32),
                              mask, False)
        elif op == "S2R":
            self.write_result(instruction, self.special[srcs[0].name].copy(),
                              mask, False)
        elif op == "SHFL":
            self._exec_shfl(instruction, mask)
        elif op in ("LDG", "LDS", "STG", "STS", "ATOM"):
            return self._exec_memory(instruction, mask)
        else:
            raise SimulationError(f"unimplemented opcode {op}")
        return 0

    def _exec_setp(self, instruction: Instruction, mask: np.ndarray) -> None:
        op = instruction.op
        srcs = instruction.sources
        if op == "ISETP":
            a = self.read_u32(srcs[0], mask).view(np.int32)
            b = self.read_u32(srcs[1], mask).view(np.int32)
        elif op == "FSETP":
            a = self.read_f32(srcs[0], mask)
            b = self.read_f32(srcs[1], mask)
        else:
            a = self.read_f64(srcs[0], mask)
            b = self.read_f64(srcs[1], mask)
        result = _COMPARES[instruction.compare](a, b)
        index = instruction.dest.value
        if index != PT:
            mask = self._writeback_mask(mask)
            np.copyto(self.preds[index], result, where=mask)

    def _exec_shfl(self, instruction: Instruction, mask: np.ndarray) -> None:
        value = self.read_u32(instruction.sources[0], mask)
        amount = self.read_u32(instruction.sources[1], mask).astype(np.int64)
        lanes = np.arange(WARP_SIZE, dtype=np.int64)
        modifiers = instruction.meta.get("modifiers", [])
        if "BFLY" in modifiers:
            source_lane = lanes ^ amount
        elif "UP" in modifiers:
            source_lane = lanes - amount
        elif "DOWN" in modifiers:
            source_lane = lanes + amount
        else:  # IDX
            source_lane = amount
        valid = (source_lane >= 0) & (source_lane < WARP_SIZE)
        source_lane = np.where(valid, source_lane, lanes)
        gathered = value[source_lane]
        # Lanes whose source is inactive keep their own value (defined
        # behaviour here; CUDA leaves it undefined).
        src_active = mask[source_lane]
        result = np.where(valid & src_active, gathered, value)
        self.write_result(instruction, result.astype(np.uint32), mask,
                          False)

    def _exec_memory(self, instruction: Instruction,
                     mask: np.ndarray) -> int:
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
        addresses = self.read_u32(address_operand, mask).astype(np.int64) + \
            instruction.offset
        addresses = addresses.astype(np.int64)
        checked = np.where(mask, addresses, 0).astype(np.uint32)

        if op in ("LDG", "LDS"):
            low = space.gather(checked, mask)
            if wide:
                high = space.gather((checked + 1).astype(np.uint32), mask)
                value = low.astype(np.uint64) | (
                    high.astype(np.uint64) << np.uint64(32))
                self.write_result(instruction, value, mask, True)
            else:
                self.write_result(instruction, low, mask, False)
        elif op in ("STG", "STS"):
            if wide:
                value = self.read_u64(value_operand, mask)
                space.scatter(checked,
                              (value & np.uint64(0xFFFF_FFFF)).astype(
                                  np.uint32), mask)
                space.scatter((checked + 1).astype(np.uint32),
                              (value >> np.uint64(32)).astype(np.uint32),
                              mask)
            else:
                space.scatter(checked, self.read_u32(value_operand, mask),
                              mask)
        else:  # ATOM
            atom_op = next(m for m in modifiers
                           if m in ("ADD", "MAX", "MIN", "EXCH"))
            old = space.atomic(atom_op, checked,
                               self.read_u32(value_operand, mask), mask)
            self.write_result(instruction, old, mask, False)

        if op in ("LDG", "STG", "ATOM"):
            transactions, self._last_segments = global_access_profile(
                checked, mask, wide)
            return max(1, transactions)
        return max(1, shared_bank_conflicts(checked, mask, wide))


def apply_fault_strike(plan, state: ResilienceState,
                       taint: Optional[TaintTracker], role: Optional[str],
                       dest: int, values: np.ndarray, mask: np.ndarray,
                       is_64bit: bool, base: int = 0):
    """Strike one warp-width instruction result with a placed FaultPlan.

    Shared by the scalar :class:`Warp` and the trial-batched executor in
    :mod:`repro.gpu.tensor` (which passes the struck block's 32-lane
    slice, and as ``base`` the block's first lane in the flat lanes
    ``taint`` is keyed by).  The caller has already verified the plan's
    placement gates (cta/warp/occurrence/pipe); this function decides
    whether the event *fires* and what it corrupts.  ``dest`` is the
    destination register index; ``values`` is the ``(32,)`` uint32 (or
    uint64 when ``is_64bit``) result vector and ``mask`` the boolean
    execution mask.

    Returns ``(values, protected)``: the possibly-corrupted result and
    the set of freshly-tainted ``(register, base + lane)`` keys the
    writeback must not clear.  One event may flip several bits
    (``plan.strike_bits``) in several lanes (``plan.strike_lanes``);
    bits past the value's width are dropped, not wrapped, and lanes
    that are inactive under the execution mask are untouched.
    """
    protected = set()
    active_lanes = [lane for lane in plan.strike_lanes if mask[lane]]
    if not active_lanes:
        return values, protected  # struck only inactive lanes: masked
    if plan.where == "storage" and role == "shadow":
        # Shadows own no data segment, so there is no stored data bit
        # for a storage strike to hit; the plan stays unfired.
        return values, protected
    state.fault_fired = True
    width = 64 if is_64bit else 32
    strike = plan.strike_mask(width)
    if strike == 0:
        # Every strike bit clipped past the value's edge: the event
        # fired without corrupting anything (campaigns bin it masked).
        return values, protected
    halves = _strike_halves(strike, is_64bit)

    if plan.where == "predictor":
        if taint is not None and role == "predicted":
            for lane in active_lanes:
                true_value = int(values[lane])
                for offset, half_mask in halves:
                    register = dest + offset
                    true_word = (true_value >> (32 * offset)) \
                        & 0xFFFF_FFFF
                    bits = [index for index in range(32)
                            if half_mask >> index & 1]
                    if taint.taint_check_strike(
                            register, base + lane, true_word, bits):
                        protected.add((register, base + lane))
        return values, protected

    corrupted = values.copy()
    for lane in active_lanes:
        true_value = int(corrupted[lane])
        bad_value = true_value ^ strike
        if is_64bit:
            corrupted[lane] = np.uint64(bad_value)
        else:
            corrupted[lane] = np.uint32(bad_value & 0xFFFF_FFFF)

        if plan.where == "storage":
            # The strike lands in the RF cell after the pair
            # completes: the architectural data flips, but the check
            # bits (and the DP bit) keep describing the true value,
            # so correcting schemes scrub it at the next read.
            if taint is not None:
                for offset, half_mask in halves:
                    register = dest + offset
                    true_word = (true_value >> (32 * offset)) \
                        & 0xFFFF_FFFF
                    taint.taint_storage_mask(
                        register, base + lane, true_word, half_mask)
                    protected.add((register, base + lane))
            continue

        # Data-path fault: corrupt the computed value.
        if taint is not None and role != "shadow":
            # Shadows never write data: the masked-writeback compare
            # in write_result turns their corrupted value into a
            # check-only taint, so no word is created here.
            for offset, half_mask in halves:
                register = dest + offset
                true_word = (true_value >> (32 * offset)) & 0xFFFF_FFFF
                bad_word = true_word ^ half_mask
                if role == "predicted":
                    taint.taint_data_with_true_check(
                        register, base + lane, bad_word, true_word)
                else:
                    # Originals (and unpaired writes) emit a valid
                    # codeword of the bad value; the shadow's later
                    # masked write exposes it.
                    taint.taint_original(register, base + lane, bad_word)
                protected.add((register, base + lane))
    return corrupted, protected


def _strike_halves(strike: int, is_64bit: bool):
    """Split a strike mask into per-register (offset, 32-bit mask) parts.

    64-bit values live in two consecutive 32-bit registers, so a wide
    strike may taint both; each returned entry names the register
    offset from the destination and the mask within that word.
    """
    if not is_64bit:
        return [(0, strike & 0xFFFF_FFFF)]
    halves = []
    if strike & 0xFFFF_FFFF:
        halves.append((0, strike & 0xFFFF_FFFF))
    if strike >> 32:
        halves.append((1, strike >> 32))
    return halves


def global_access_profile(addresses: np.ndarray, mask: np.ndarray,
                          wide: bool) -> Tuple[int, tuple]:
    """Coalescing profile of one global access in a single pass.

    Returns ``(transactions, segments)``.  ``transactions`` is the
    number of distinct 128-byte segments touched, summed over the one
    (narrow) or two (wide) 32-bit parts: wide accesses issue each part
    as its own warp-wide transaction.  ``segments`` is the sorted tuple
    of all distinct segment indices (for the SM cache model).
    ``addresses`` must already be masked-safe (inactive lanes zeroed).
    At most 32 lanes are active, so Python sets count them faster than
    ``np.unique`` would.
    """
    active = addresses[mask].tolist()
    segments = {address // SEGMENT_WORDS for address in active}
    transactions = len(segments)
    if wide:
        high = {(address + 1) // SEGMENT_WORDS for address in active}
        transactions += len(high)
        segments |= high
    return transactions, tuple(sorted(segments))


def shared_bank_conflicts(addresses: np.ndarray, mask: np.ndarray,
                          wide: bool) -> int:
    """Serialized shared-memory conflict count for one access.

    Lanes reading the same address broadcast (one access), so each
    32-bit part counts *distinct* addresses per bank, maximized over
    the 32 banks; wide accesses sum their two parts.
    """
    active = set(addresses[mask].tolist())
    if not active:
        return 0
    conflicts = _max_addresses_per_bank(active)
    if wide:
        conflicts += _max_addresses_per_bank(
            {address + 1 for address in active})
    return conflicts


def _max_addresses_per_bank(addresses: Set[int]) -> int:
    return max(Counter(address % 32 for address in addresses).values())


def _shift_mask(values: np.ndarray) -> np.ndarray:
    return values & np.uint32(31)


_INT_BINOPS: Dict[str, Callable] = {
    "IADD": lambda a, b: a + b,
    "ISUB": lambda a, b: a - b,
    "IMUL": lambda a, b: a * b,
    "IMIN": lambda a, b: np.minimum(a.view(np.int32),
                                    b.view(np.int32)).view(np.uint32),
    "IMAX": lambda a, b: np.maximum(a.view(np.int32),
                                    b.view(np.int32)).view(np.uint32),
    "SHL": lambda a, b: a << _shift_mask(b),
    "SHR": lambda a, b: a >> _shift_mask(b),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
}

_FP32_OPS: Dict[str, Callable] = {
    "FADD": lambda a, b: a + b,
    "FSUB": lambda a, b: a - b,
    "FMUL": lambda a, b: a * b,
    "FFMA": lambda a, b, c: a * b + c,
    "FMIN": np.minimum,
    "FMAX": np.maximum,
    "FRCP": lambda a: np.float32(1.0) / a,
    "FSQRT": np.sqrt,
    "FEXP": np.exp,
    "FLOG": lambda a: np.log(np.abs(a) + np.float32(1e-30)),
}

_FP64_OPS: Dict[str, Callable] = {
    "DADD": lambda a, b: a + b,
    "DSUB": lambda a, b: a - b,
    "DMUL": lambda a, b: a * b,
    "DFMA": lambda a, b, c: a * b + c,
    "DRCP": lambda a: 1.0 / a,
}

_COMPARES: Dict[str, Callable] = {
    "LT": lambda a, b: a < b,
    "LE": lambda a, b: a <= b,
    "EQ": lambda a, b: a == b,
    "NE": lambda a, b: a != b,
    "GE": lambda a, b: a >= b,
    "GT": lambda a, b: a > b,
}
