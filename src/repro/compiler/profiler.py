"""Binary-instrumentation analogs: code-mix profiler and operand tracer.

The paper builds SASSI-based tools (Section IV-A); here the simulator's
observer hook plays that role:

* :class:`CodeMixProfiler` counts dynamic warp instructions per Figure 13
  class (not-eligible / checked-predicted / checked-duplicated /
  compiler-inserted / checking);
* :class:`OperandTracer` extracts arithmetic operand values to drive
  gate-level fault injection with realistic data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import InvalidArgument
from repro.gpu.isa import DupClass, Instruction
from repro.inject.operands import OperandTrace

#: Figure 13 stack order, bottom to top
MIX_CATEGORIES = ("not_eligible", "checked_predicted", "checked_duplicated",
                  "inserted", "checking")


@dataclass
class MixCounts:
    """Dynamic warp-instruction counts per Figure 13 category."""

    not_eligible: int = 0
    checked_predicted: int = 0
    checked_duplicated: int = 0
    inserted: int = 0
    checking: int = 0
    #: eligible instructions of an *untransformed* kernel
    plain_eligible: int = 0

    @property
    def total(self) -> int:
        return (self.not_eligible + self.checked_predicted +
                self.checked_duplicated + self.inserted + self.checking +
                self.plain_eligible)

    def as_fractions(self, baseline_total: int) -> Dict[str, float]:
        """Each category relative to the un-duplicated program's count."""
        if baseline_total <= 0:
            raise InvalidArgument("baseline total must be positive")
        return {name: getattr(self, name) / baseline_total
                for name in MIX_CATEGORIES}

    def bloat(self, baseline_total: int) -> float:
        """Total dynamic instruction bloat vs the un-duplicated program."""
        return self.total / baseline_total - 1.0


def mix_category(instruction: Instruction) -> str:
    """The :class:`MixCounts` field one issue of ``instruction`` counts in."""
    klass = instruction.meta.get("klass", "baseline")
    if klass == "duplicated":
        return "checked_duplicated"
    if klass == "predicted":
        return "checked_predicted"
    if klass in ("checking", "inserted"):
        return klass
    # A baseline instruction of the original program.
    role = instruction.meta.get("role")
    if role == "original":
        return "checked_duplicated"
    if role == "predicted":
        return "checked_predicted"
    if instruction.spec.dup_class in (DupClass.BOUNDARY, DupClass.NEUTRAL):
        return "not_eligible"
    return "plain_eligible"


class CodeMixProfiler:
    """Observer counting every issued instruction into its mix category.

    The category of each pc is computed once per kernel, on the first
    step of that kernel the profiler sees.
    """

    def __init__(self):
        self.counts = MixCounts()
        self._kernel = None
        self._categories: List[str] = []

    def on_step(self, warp, info) -> None:
        if warp.kernel is not self._kernel:
            self._kernel = warp.kernel
            self._categories = [mix_category(instruction) for instruction
                                in warp.kernel.instructions]
        category = self._categories[info.pc]
        counts = self.counts
        setattr(counts, category, getattr(counts, category) + 1)


#: opcode -> operand-trace kind for the six Figure 10 units
_TRACE_KINDS = {
    "IADD": "int_add", "ISUB": "int_add",
    "IMUL": "int_mad", "IMAD": "int_mad",
    "FADD": "fp32_add", "FSUB": "fp32_add",
    "FMUL": "fp32_mad", "FFMA": "fp32_mad",
    "DADD": "fp64_add", "DSUB": "fp64_add",
    "DMUL": "fp64_mad", "DFMA": "fp64_mad",
}


class OperandTracer:
    """Observer recording arithmetic operand values for injection.

    Mirrors the paper's tracer bounds: a per-kind cap plays the role of the
    100k-instruction trace limit and ``lanes_per_step`` bounds how many of
    the 32 lane values each dynamic instruction contributes.

    Instructions that overwrite one of their own sources are skipped
    (their inputs are gone by the time the observer runs); this loses a
    small, unbiased slice of the stream.
    """

    def __init__(self, trace: Optional[OperandTrace] = None,
                 limit_per_kind: int = 4000, lanes_per_step: int = 2):
        self.trace = trace if trace is not None else OperandTrace()
        self.limit_per_kind = limit_per_kind
        self.lanes_per_step = lanes_per_step

    def full(self, kind: str) -> bool:
        return len(self.trace.values.get(kind, [])) >= self.limit_per_kind

    def on_step(self, warp, info) -> None:
        instruction = info.instruction
        kind = _TRACE_KINDS.get(instruction.op)
        if kind is None or info.active_lanes == 0 or self.full(kind):
            return
        dest_registers = set(instruction.dest_registers())
        if dest_registers.intersection(instruction.source_registers()):
            return
        wide = instruction.spec.is_64bit
        reader = warp.read_u64 if wide else warp.read_u32
        mask = np.ones(32, dtype=bool)
        values = []
        for operand in instruction.sources:
            if not operand.is_register and \
                    operand.kind.value not in ("imm",):
                return
            if operand.is_register:
                values.append(reader(operand, mask))
            else:
                fill = np.uint64(operand.value) if wide \
                    else np.uint32(operand.value)
                values.append(np.full(32, fill))
        lanes = 0
        for lane in range(32):
            if lanes >= self.lanes_per_step:
                break
            lanes += 1
            tuple_values = [int(column[lane]) for column in values]
            if kind.endswith("mad") and len(tuple_values) == 2:
                tuple_values.append(0)  # IMUL/FMUL: zero addend
            if kind == "int_mad":
                # The traced MAD consumes a 64-bit addend register pair.
                tuple_values[2] &= 0xFFFF_FFFF_FFFF_FFFF
            self.trace.add(kind, tuple(tuple_values))
