"""The SASS-like instruction set executed by the GPU simulator.

The ISA is a compact stand-in for the Pascal-era instruction set the paper
compiles to: 32-bit integer and FP32 arithmetic on single registers, FP64 on
even-aligned register pairs, predicated execution, explicit divergence
reconvergence annotations on branches, shared/global memory, warp shuffles,
barriers, and atomics.

Each opcode carries the metadata the rest of the stack needs:

* an execution-pipe class (for the timing model),
* a duplication class (for the resilience compiler passes: which
  instructions are duplication-eligible, which are prediction-eligible for
  each Swap-Predict organization, which end a duplication region).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import AssemblyError

#: number of threads per warp
WARP_SIZE = 32

#: the zero register (reads 0, writes discarded)
RZ = 255
#: the always-true predicate
PT = 7


class Pipe(enum.Enum):
    """Execution pipes of the SM timing model."""

    ALU = "alu"           # integer / logic / moves / predicates
    FMA32 = "fma32"       # fp32 add / mul / fma
    FMA64 = "fma64"       # fp64 add / mul / fma (half rate on the P100)
    SFU = "sfu"           # special functions: rcp, sqrt, conversions
    LSU = "lsu"           # global / shared loads and stores, atomics
    BRANCH = "branch"     # control flow, barriers, traps


class DupClass(enum.Enum):
    """How the resilience passes treat an opcode."""

    ELIGIBLE = "eligible"        # duplicated by every scheme
    MOVE = "move"                # move-propagation avoids duplication
    BOUNDARY = "boundary"        # checked-before: memory/control/atomics
    NEUTRAL = "neutral"          # no dataflow output to protect (NOP, BAR)


@dataclass(frozen=True)
class OpSpec:
    """Static properties of one opcode."""

    name: str
    pipe: Pipe
    latency: int
    initiation_interval: int
    dup_class: DupClass
    #: prediction kind for Swap-Predict ("addsub", "mad", "fxp",
    #: "fp-addsub", "fp-mad", or None when unpredictable)
    predict_kind: Optional[str] = None
    #: True for 64-bit operations on register pairs
    is_64bit: bool = False
    writes_dest: bool = True


def _spec(name, pipe, latency, ii, dup, predict=None, is_64bit=False,
          writes_dest=True):
    return OpSpec(name, pipe, latency, ii, dup, predict, is_64bit,
                  writes_dest)


#: every opcode in the ISA
OPCODES: Dict[str, OpSpec] = {spec.name: spec for spec in [
    # --- integer -------------------------------------------------------
    _spec("MOV", Pipe.ALU, 6, 1, DupClass.MOVE),
    _spec("IADD", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "addsub"),
    _spec("ISUB", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "addsub"),
    _spec("IMUL", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "mad"),
    _spec("IMAD", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "mad"),
    _spec("IMIN", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "fxp"),
    _spec("IMAX", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "fxp"),
    _spec("SHL", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "fxp"),
    _spec("SHR", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "fxp"),
    _spec("AND", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "fxp"),
    _spec("OR", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "fxp"),
    _spec("XOR", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "fxp"),
    _spec("NOT", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, "fxp"),
    # --- fp32 ----------------------------------------------------------
    _spec("FADD", Pipe.FMA32, 6, 1, DupClass.ELIGIBLE, "fp-addsub"),
    _spec("FSUB", Pipe.FMA32, 6, 1, DupClass.ELIGIBLE, "fp-addsub"),
    _spec("FMUL", Pipe.FMA32, 6, 1, DupClass.ELIGIBLE, "fp-mad"),
    _spec("FFMA", Pipe.FMA32, 6, 1, DupClass.ELIGIBLE, "fp-mad"),
    _spec("FMIN", Pipe.FMA32, 6, 1, DupClass.ELIGIBLE),
    _spec("FMAX", Pipe.FMA32, 6, 1, DupClass.ELIGIBLE),
    # --- fp64 (register pairs) -----------------------------------------
    _spec("DADD", Pipe.FMA64, 8, 2, DupClass.ELIGIBLE, "fp-addsub",
          is_64bit=True),
    _spec("DSUB", Pipe.FMA64, 8, 2, DupClass.ELIGIBLE, "fp-addsub",
          is_64bit=True),
    _spec("DMUL", Pipe.FMA64, 8, 2, DupClass.ELIGIBLE, "fp-mad",
          is_64bit=True),
    _spec("DFMA", Pipe.FMA64, 8, 2, DupClass.ELIGIBLE, "fp-mad",
          is_64bit=True),
    # --- special functions ----------------------------------------------
    _spec("FRCP", Pipe.SFU, 20, 4, DupClass.ELIGIBLE),
    _spec("DRCP", Pipe.SFU, 120, 4, DupClass.ELIGIBLE, is_64bit=True),
    _spec("FSQRT", Pipe.SFU, 20, 4, DupClass.ELIGIBLE),
    _spec("FEXP", Pipe.SFU, 20, 4, DupClass.ELIGIBLE),
    _spec("FLOG", Pipe.SFU, 20, 4, DupClass.ELIGIBLE),
    _spec("I2F", Pipe.SFU, 10, 2, DupClass.ELIGIBLE),
    _spec("F2I", Pipe.SFU, 10, 2, DupClass.ELIGIBLE),
    # --- predicates ------------------------------------------------------
    _spec("ISETP", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, writes_dest=False),
    _spec("FSETP", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, writes_dest=False),
    _spec("DSETP", Pipe.ALU, 6, 1, DupClass.ELIGIBLE, writes_dest=False),
    _spec("SEL", Pipe.ALU, 6, 1, DupClass.ELIGIBLE),
    # --- data movement / special registers ------------------------------
    _spec("S2R", Pipe.ALU, 6, 1, DupClass.MOVE),
    _spec("SHFL", Pipe.ALU, 8, 1, DupClass.BOUNDARY),
    # --- memory ----------------------------------------------------------
    _spec("LDG", Pipe.LSU, 350, 2, DupClass.BOUNDARY),
    _spec("STG", Pipe.LSU, 4, 2, DupClass.BOUNDARY, writes_dest=False),
    _spec("LDS", Pipe.LSU, 30, 1, DupClass.BOUNDARY),
    _spec("STS", Pipe.LSU, 4, 1, DupClass.BOUNDARY, writes_dest=False),
    _spec("ATOM", Pipe.LSU, 400, 4, DupClass.BOUNDARY),
    # --- control ----------------------------------------------------------
    _spec("BRA", Pipe.BRANCH, 6, 1, DupClass.BOUNDARY, writes_dest=False),
    _spec("BAR", Pipe.BRANCH, 6, 1, DupClass.NEUTRAL, writes_dest=False),
    _spec("EXIT", Pipe.BRANCH, 1, 1, DupClass.BOUNDARY, writes_dest=False),
    _spec("BPT", Pipe.BRANCH, 1, 1, DupClass.NEUTRAL, writes_dest=False),
    _spec("NOP", Pipe.ALU, 1, 1, DupClass.NEUTRAL, writes_dest=False),
]}

#: special register names readable via S2R
SPECIAL_REGISTERS = ("SR_TID", "SR_CTAID", "SR_NTID", "SR_NCTAID", "SR_LANE")

#: comparison operators for ISETP/FSETP/DSETP
COMPARE_OPS = ("LT", "LE", "EQ", "NE", "GE", "GT")


class OperandKind(enum.Enum):
    """The six operand shapes the toy ISA decodes."""

    REGISTER = "reg"
    REGISTER64 = "reg64"
    PREDICATE = "pred"
    IMMEDIATE = "imm"
    SPECIAL = "special"
    LABEL = "label"


@dataclass(frozen=True)
class Operand:
    """One instruction operand."""

    kind: OperandKind
    value: int = 0
    name: str = ""

    @staticmethod
    def reg(index: int) -> "Operand":
        """A 32-bit register operand; ``RZ`` reads as zero."""
        if not 0 <= index <= RZ:
            raise AssemblyError(f"register index {index} out of range")
        return Operand(OperandKind.REGISTER, index)

    @staticmethod
    def reg64(index: int) -> "Operand":
        """A 64-bit operand over the even-aligned pair (Rn, Rn+1)."""
        if index != RZ and (index % 2 or not 0 <= index < RZ - 1):
            raise AssemblyError(
                f"64-bit operands need an even register pair, got R{index}")
        return Operand(OperandKind.REGISTER64, index)

    @staticmethod
    def pred(index: int) -> "Operand":
        """A predicate-register operand; ``PT`` is constant true."""
        if not 0 <= index <= PT:
            raise AssemblyError(f"predicate index {index} out of range")
        return Operand(OperandKind.PREDICATE, index)

    @staticmethod
    def imm(value: int) -> "Operand":
        """An immediate operand (signed; wrapped to 32 bits at use)."""
        return Operand(OperandKind.IMMEDIATE, value)

    @staticmethod
    def special(name: str) -> "Operand":
        """A special-register operand (``SR_TID``, ``SR_CTAID``, ...)."""
        if name not in SPECIAL_REGISTERS:
            raise AssemblyError(f"unknown special register {name}")
        return Operand(OperandKind.SPECIAL, 0, name)

    @staticmethod
    def label(name: str) -> "Operand":
        """A branch-target label operand, resolved at assembly."""
        return Operand(OperandKind.LABEL, 0, name)

    @property
    def is_register(self) -> bool:
        """True for 32- and 64-bit register operands (not predicates)."""
        return self.kind in (OperandKind.REGISTER, OperandKind.REGISTER64)

    def registers(self) -> Tuple[int, ...]:
        """The physical 32-bit register indices this operand touches."""
        if self.kind is OperandKind.REGISTER:
            return () if self.value == RZ else (self.value,)
        if self.kind is OperandKind.REGISTER64:
            return () if self.value == RZ else (self.value, self.value + 1)
        return ()

    def __str__(self) -> str:
        if self.kind is OperandKind.REGISTER:
            return "RZ" if self.value == RZ else f"R{self.value}"
        if self.kind is OperandKind.REGISTER64:
            return "RZ" if self.value == RZ else f"RD{self.value}"
        if self.kind is OperandKind.PREDICATE:
            return "PT" if self.value == PT else f"P{self.value}"
        if self.kind is OperandKind.IMMEDIATE:
            return str(self.value)
        return self.name


@dataclass
class Instruction:
    """One decoded instruction.

    ``meta`` carries compiler-pass annotations: ``role`` tags instructions
    as "original", "shadow", "check", "sync", or "predicted"; ``swap_shadow``
    marks the 1-bit ISA flag for masked ECC-only writeback (Table II).
    """

    op: str
    dest: Optional[Operand] = None
    sources: List[Operand] = field(default_factory=list)
    predicate: Optional[int] = None
    predicate_negated: bool = False
    compare: Optional[str] = None
    target: Optional[str] = None
    reconverge: Optional[str] = None
    offset: int = 0
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def spec(self) -> OpSpec:
        """The opcode's static description (pipe, latency, flags)."""
        return OPCODES[self.op]

    def source_registers(self) -> Tuple[int, ...]:
        """All 32-bit register indices read by the sources (cached)."""
        cached = self.__dict__.get("_src_regs")
        if cached is None:
            regs: List[int] = []
            for operand in self.sources:
                regs.extend(operand.registers())
            cached = self.__dict__["_src_regs"] = tuple(regs)
        return cached

    def dest_registers(self) -> Tuple[int, ...]:
        """The 32-bit register indices this instruction writes (cached)."""
        cached = self.__dict__.get("_dst_regs")
        if cached is None:
            if self.dest is None or not self.spec.writes_dest:
                cached = ()
            else:
                cached = self.dest.registers()
            self.__dict__["_dst_regs"] = cached
        return cached

    def copy(self) -> "Instruction":
        """A deep-enough copy for compiler passes to mutate safely."""
        return Instruction(
            op=self.op, dest=self.dest, sources=list(self.sources),
            predicate=self.predicate,
            predicate_negated=self.predicate_negated,
            compare=self.compare, target=self.target,
            reconverge=self.reconverge, offset=self.offset,
            meta=dict(self.meta))

    def __str__(self) -> str:
        parts = []
        if self.predicate is not None:
            bang = "!" if self.predicate_negated else ""
            name = "PT" if self.predicate == PT else f"P{self.predicate}"
            parts.append(f"@{bang}{name}")
        opname = self.op
        if self.compare:
            opname += f".{self.compare}"
        parts.append(opname)
        operands = []
        if self.dest is not None:
            operands.append(str(self.dest))
        operands.extend(str(source) for source in self.sources)
        if self.target:
            operands.append(self.target)
        if self.offset:
            operands.append(f"+{self.offset}")
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)
