"""Shared infrastructure for the resilience compiler passes.

Every pass consumes an assembled :class:`~repro.gpu.program.Kernel` and
produces a transformed kernel whose instructions carry two metadata keys:

* ``role`` — how the register file should treat the write: ``original``,
  ``shadow`` (masked check-bit-only writeback), or ``predicted`` (check
  bits from a prediction unit / move propagation);
* ``klass`` — the Figure 13 accounting class: ``baseline`` (an instruction
  of the original program), ``duplicated`` (a shadow), ``predicted``,
  ``checking`` (comparison/trap code), or ``inserted`` (compiler
  sync/copy/overhead instructions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import CompilationError
from repro.gpu.isa import RZ, DupClass, Instruction, Operand, OperandKind
from repro.gpu.program import Kernel, LaunchConfig

#: Figure 13 dynamic-instruction classes
KLASSES = ("baseline", "duplicated", "predicted", "checking", "inserted")

#: cumulative Swap-Predict predictor tiers (Figures 12 and 16)
PREDICTOR_TIERS = ("addsub", "mad", "fxp", "fp-addsub", "fp-mad")


def predicted_kinds(tier: Optional[str]) -> Tuple[str, ...]:
    """The prediction kinds covered by a cumulative predictor tier."""
    if tier is None:
        return ()
    if tier not in PREDICTOR_TIERS:
        raise CompilationError(
            f"unknown predictor tier {tier!r}; choose from "
            f"{PREDICTOR_TIERS}")
    index = PREDICTOR_TIERS.index(tier)
    return PREDICTOR_TIERS[:index + 1]


def is_eligible(instruction: Instruction) -> bool:
    """Duplication-eligible: produces a register value in the datapath."""
    spec = instruction.spec
    return (spec.dup_class in (DupClass.ELIGIBLE, DupClass.MOVE)
            and spec.writes_dest
            and instruction.dest is not None
            and instruction.dest.is_register
            and instruction.dest.value != RZ)


def is_move_like(instruction: Instruction) -> bool:
    """Moves and special-register reads: covered by move propagation."""
    return instruction.spec.dup_class is DupClass.MOVE


def tag(instruction: Instruction, klass: str,
        role: Optional[str] = None) -> Instruction:
    """Annotate an instruction with its accounting class and role."""
    if klass not in KLASSES:
        raise CompilationError(f"unknown klass {klass!r}")
    instruction.meta["klass"] = klass
    if role is not None:
        instruction.meta["role"] = role
    return instruction


def tag_baseline(kernel: Kernel) -> Kernel:
    """Mark every instruction of an untransformed kernel as baseline."""
    for instruction in kernel.instructions:
        instruction.meta.setdefault("klass", "baseline")
    return kernel


@dataclass
class PassResult:
    """A transformed kernel plus how the launch configuration changes."""

    kernel: Kernel
    #: multiply threads-per-CTA by this (inter-thread duplication uses 2)
    thread_multiplier: int = 1
    #: multiply shared memory per CTA by this
    shared_multiplier: int = 1

    def adjust_launch(self, launch: LaunchConfig) -> LaunchConfig:
        if self.thread_multiplier == 1 and self.shared_multiplier == 1:
            return launch
        return LaunchConfig(
            grid_ctas=launch.grid_ctas,
            threads_per_cta=launch.threads_per_cta * self.thread_multiplier,
            shared_words_per_cta=(launch.shared_words_per_cta *
                                  self.shared_multiplier))


class RegisterBudget:
    """Hands out scratch registers above a kernel's live range."""

    def __init__(self, kernel: Kernel, limit: int = RZ - 1):
        self.base = kernel.register_count()
        self.next = self.base
        self.limit = limit

    def fresh(self) -> int:
        if self.next > self.limit:
            raise CompilationError(
                f"out of registers (needs more than {self.limit})")
        register = self.next
        self.next += 1
        return register

    def fresh_pair(self) -> int:
        if self.next % 2:
            self.next += 1
        register = self.next
        self.next += 2
        if register + 1 > self.limit:
            raise CompilationError("out of registers for a 64-bit pair")
        return register


def remap_operand(operand: Operand, offset: int) -> Operand:
    """Shift a register operand into a shadow space ``offset`` above."""
    if operand.kind is OperandKind.REGISTER and operand.value != RZ:
        return Operand.reg(operand.value + offset)
    if operand.kind is OperandKind.REGISTER64 and operand.value != RZ:
        return Operand.reg64(operand.value + offset)
    return operand
