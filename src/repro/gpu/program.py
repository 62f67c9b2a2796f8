"""Kernel containers and the helpers compiler passes use to rewrite them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import AssemblyError
from repro.gpu.isa import Instruction


@dataclass
class Kernel:
    """An assembled kernel: instructions plus label -> index map."""

    name: str
    instructions: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)

    def validate(self) -> None:
        """Check label targets and register ranges; raise on problems."""
        for index, instruction in enumerate(self.instructions):
            for label in (instruction.target, instruction.reconverge):
                if label is not None and label not in self.labels:
                    raise AssemblyError(
                        f"{self.name}[{index}]: undefined label {label!r}")

    def register_count(self) -> int:
        """Per-thread register usage (highest index used plus one).

        This is what the occupancy calculator sees: duplication passes that
        add shadow registers directly reduce resident warps.
        """
        highest = -1
        for instruction in self.instructions:
            operands = list(instruction.sources)
            if instruction.dest is not None:
                operands.append(instruction.dest)
            for operand in operands:
                for register in operand.registers():
                    highest = max(highest, register)
        return highest + 1

    def labels_at(self) -> Dict[int, List[str]]:
        """Invert the label map: instruction index -> label names."""
        at: Dict[int, List[str]] = {}
        for name, index in self.labels.items():
            at.setdefault(index, []).append(name)
        return at

    def listing(self) -> str:
        """Human-readable disassembly."""
        at = self.labels_at()
        lines = [f"// kernel {self.name} "
                 f"({len(self.instructions)} instructions, "
                 f"{self.register_count()} registers)"]
        for index, instruction in enumerate(self.instructions):
            for label in sorted(at.get(index, [])):
                lines.append(f"{label}:")
            lines.append(f"    {instruction}")
        for label in sorted(at.get(len(self.instructions), [])):
            lines.append(f"{label}:")
        return "\n".join(lines)


class KernelWriter:
    """Accumulates instructions and labels when building or rewriting."""

    def __init__(self, name: str):
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._fresh = 0

    def place_label(self, name: str) -> None:
        """Bind ``name`` to the next emitted instruction's index."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)

    def fresh_label(self, hint: str = "L") -> str:
        """A new unique label name (compiler passes splice blocks)."""
        self._fresh += 1
        return f".{hint}_{self._fresh}"

    def emit(self, instruction: Instruction) -> Instruction:
        """Append one instruction and return it for chaining."""
        self._instructions.append(instruction)
        return instruction

    def finish(self) -> Kernel:
        """Seal the stream into a validated :class:`Kernel`."""
        kernel = Kernel(self.name, self._instructions, self._labels)
        kernel.validate()
        return kernel


@dataclass(frozen=True)
class LaunchConfig:
    """Grid geometry for one kernel launch (1-D grid, 1-D blocks)."""

    grid_ctas: int
    threads_per_cta: int
    shared_words_per_cta: int = 0

    def __post_init__(self):
        if self.grid_ctas <= 0 or self.threads_per_cta <= 0:
            raise AssemblyError("launch dimensions must be positive")
        if self.threads_per_cta > 1024:
            raise AssemblyError("at most 1024 threads per CTA")

    @property
    def warps_per_cta(self) -> int:
        """Warps needed per CTA (threads rounded up to 32)."""
        return (self.threads_per_cta + 31) // 32

    @property
    def total_threads(self) -> int:
        """Threads across the whole grid."""
        return self.grid_ctas * self.threads_per_cta
