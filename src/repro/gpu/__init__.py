"""The SIMT GPU simulator: ISA, assembler, SM timing model, ECC semantics.

Quick tour::

    from repro.gpu import (Device, LaunchConfig, MemorySpace, assemble,
                           run_functional)

    kernel = assemble("vadd", '''
        S2R R0, SR_TID
        S2R R1, SR_CTAID
        S2R R2, SR_NTID
        IMAD R3, R1, R2, R0     // global thread id
        IADD R4, R3, 0          // a[i] address (a at 0)
        LDG R5, [R4]
        LDG R6, [R4+1024]       // b at 1024
        IADD R7, R5, R6
        STG [R4+2048], R7       // c at 2048
        EXIT
    ''')
    memory = MemorySpace(4096)
    result = Device().launch(kernel, LaunchConfig(4, 256), memory)
"""

from repro.gpu.asm import assemble, parse_instruction
from repro.gpu.device import (Device, LaunchResult, run_functional,
                              run_functional_cta)
from repro.gpu.power import PowerEstimate, PowerModel
from repro.gpu.isa import (OPCODES, PT, RZ, WARP_SIZE, DupClass, Instruction,
                           Operand, OperandKind, OpSpec, Pipe)
from repro.gpu.memory import MemorySpace
from repro.gpu.program import Kernel, KernelWriter, LaunchConfig
from repro.gpu.resilience import (DetectionEvent, FaultPlan, ResilienceState,
                                  TaintTracker)
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.timing import Occupancy, TimingParams
from repro.gpu.warp import KernelHalt, StepInfo, Warp
from repro.gpu.watchdog import Watchdog, WatchdogConfig

__all__ = [
    "assemble", "parse_instruction",
    "Device", "LaunchResult", "run_functional", "run_functional_cta",
    "PowerEstimate", "PowerModel",
    "Watchdog", "WatchdogConfig",
    "OPCODES", "PT", "RZ", "WARP_SIZE", "DupClass", "Instruction", "Operand",
    "OperandKind", "OpSpec", "Pipe",
    "MemorySpace",
    "Kernel", "KernelWriter", "LaunchConfig",
    "DetectionEvent", "FaultPlan", "ResilienceState", "TaintTracker",
    "StreamingMultiprocessor",
    "Occupancy", "TimingParams",
    "KernelHalt", "StepInfo", "Warp",
]
