"""Graceful-degradation recovery ladder over SwapCodes detection (Sec. VI).

Swap-ECC detects errors at register reads, before they can leak to
memory; that strict containment means re-execution is a complete recovery
story.  But whole-kernel re-runs are the *bluntest* rung: SEC-DED-DP
explicitly retains single-bit storage correction, and replay granularity
is the key lever on recovery overhead.  This module implements the full
ladder:

* **rung 0 — correct and continue**: single-bit storage errors decode as
  benign corrections (Figure 5's augmented reporting); execution never
  stops, the event lands in the scrub log, and no replay happens.
* **rung 1 — CTA replay**: a DUE/trap/hang halts the CTA; because
  register state is fresh at CTA launch and shared memory is per-CTA,
  restoring the pre-CTA global-memory snapshot and re-running just that
  CTA is an architectural checkpoint restart.
* **rung 2 — kernel replay**: today's scheme — restore the pristine
  input image and run the whole kernel again.
* **rung 3 — unrecoverable**: the ladder is exhausted; the report
  surfaces a DUE (or a persistent ``hang``) with full telemetry instead
  of looping forever.

A :class:`ContainmentAuditor` can ride along: at every detection it
replays the halted CTA fault-free for exactly the executed prefix and
diffs memory word for word, machine-checking the paper's claim that
detected errors never reach DRAM (:class:`ContainmentViolation` on any
divergence).

:func:`run_with_recovery` remains as the kernel-granularity compatibility
API; both entry points validate that ``make_state`` builds a *fresh*
:class:`~repro.gpu.resilience.ResilienceState` per attempt — reusing a
fired state would silently degrade to zero injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.errors import ContainmentViolation, HangError, SimulationError
from repro.gpu.device import run_functional, run_functional_cta
from repro.gpu.memory import MemorySpace
from repro.gpu.program import Kernel, LaunchConfig
from repro.gpu.resilience import DetectionEvent, ResilienceState
from repro.gpu.warp import KernelHalt
from repro.gpu.watchdog import Watchdog, WatchdogConfig

#: every terminal ladder outcome, in escalation order
LADDER_OUTCOMES = ("ok", "corrected", "cta_replayed", "kernel_replayed",
                   "due", "hang")


@dataclass
class RecoveryResult:
    """Outcome of a recovered execution."""

    memory: MemorySpace
    attempts: int
    detections: int

    @property
    def recovered(self) -> bool:
        """True when success took at least one detect-and-replay."""
        return self.detections > 0


@dataclass(frozen=True)
class LadderConfig:
    """Escalation budgets and watchdog thresholds for one ladder run."""

    #: replays of one CTA from its launch checkpoint (0 disables rung 1)
    max_cta_replays: int = 1
    #: whole-kernel re-executions (0 disables rung 2)
    max_kernel_replays: int = 2
    #: hang budgets applied to every kernel attempt
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)

    def __post_init__(self):
        if self.max_cta_replays < 0:
            raise SimulationError(
                f"max_cta_replays must be >= 0, got {self.max_cta_replays}")
        if self.max_kernel_replays < 0:
            raise SimulationError(
                f"max_kernel_replays must be >= 0, got "
                f"{self.max_kernel_replays}")


@dataclass
class LadderReport:
    """Telemetry of one laddered execution."""

    outcome: str
    #: final memory image (None when the ladder was exhausted)
    memory: Optional[MemorySpace]
    #: DUE/trap detection events across every attempt
    detections: int = 0
    #: rung-0 scrub log length (storage errors corrected in place)
    corrected_in_place: int = 0
    cta_replays: int = 0
    kernel_replays: int = 0
    #: watchdog verdicts across every attempt
    hangs: int = 0
    #: injected fault plans that actually struck
    faults_fired: int = 0
    #: instructions executed across all attempts
    total_instructions: int = 0
    #: instructions re-executed by rung-1/rung-2 replays (the overhead)
    replayed_instructions: int = 0
    #: containment audits performed (one per detection, auditor attached)
    audits: int = 0
    #: every detection/correction event, in execution order
    events: List[DetectionEvent] = field(default_factory=list)
    detail: str = ""

    @property
    def succeeded(self) -> bool:
        """The run finished with architecturally trusted memory."""
        return self.outcome in ("ok", "corrected", "cta_replayed",
                                "kernel_replayed")

    @property
    def recovered(self) -> bool:
        """A detected error was repaired (any rung below DUE)."""
        return self.outcome in ("corrected", "cta_replayed",
                                "kernel_replayed")


class ContainmentAuditor:
    """Machine-checks read-time containment at every detection.

    On each DUE/trap the ladder hands over the pre-CTA memory snapshot,
    the step count the halted CTA executed, and the post-detection
    memory.  The auditor replays the same CTA fault-free from the
    snapshot for exactly that prefix (functional scheduling is
    deterministic, and a detected fault only ever perturbed *register*
    values before the halting read) and diffs global memory word for
    word.  Any divergence means a corrupted value reached DRAM before
    detection — the failure SwapCodes' containment claim rules out — and
    raises :class:`~repro.errors.ContainmentViolation`.
    """

    def __init__(self, kernel: Kernel, launch: LaunchConfig,
                 raise_on_violation: bool = True):
        self.kernel = kernel
        self.launch = launch
        self.raise_on_violation = raise_on_violation
        self.audits = 0
        self.violations: List[tuple] = []
        self._register_count = max(kernel.register_count(), 1)

    def audit(self, cta_index: int, snapshot_words: np.ndarray, steps: int,
              memory: MemorySpace, detail: str = "") -> List[int]:
        """Diff post-detection ``memory`` against the clean prefix replay.

        Returns the diverging word addresses (empty when containment
        held); raises on divergence unless ``raise_on_violation`` is off.
        """
        self.audits += 1
        clean = MemorySpace(len(memory), name=memory.name)
        clean.words[:] = snapshot_words
        run_functional_cta(self.kernel, self.launch, cta_index, clean,
                           ResilienceState(), step_limit=steps,
                           register_count=self._register_count)
        diverged = [int(address) for address in
                    np.nonzero(clean.words != memory.words)[0]]
        if diverged:
            self.violations.append((cta_index, diverged))
            if self.raise_on_violation:
                suffix = f" ({detail})" if detail else ""
                raise ContainmentViolation(
                    f"{self.kernel.name}: CTA {cta_index} leaked "
                    f"{len(diverged)} corrupted words to memory before "
                    f"detection (first at address {diverged[0]}){suffix}",
                    context={"cta": cta_index, "address": diverged[0],
                             "leaked_words": len(diverged),
                             "kernel": self.kernel.name})
        return diverged


def _validate_fresh_state(state, issued: List[ResilienceState]) -> None:
    """Refuse states that would silently degrade to zero injection."""
    if not isinstance(state, ResilienceState):
        raise SimulationError(
            f"make_state must return a ResilienceState, got "
            f"{type(state).__name__}")
    if any(state is prior for prior in issued):
        raise SimulationError(
            "make_state returned the same ResilienceState twice; each "
            "attempt needs a fresh state — a fired fault plan's "
            "per-state latch would otherwise silently disable injection")
    if state.fault_fired or state.events:
        raise SimulationError(
            "make_state returned a state that already ran (its fault "
            "fired or it holds recorded events); build a fresh "
            "ResilienceState per attempt")


class _StateSupply:
    """Fresh validated states from ``make_state``, with event folding."""

    def __init__(self, make_state: Callable[[], ResilienceState],
                 report: LadderReport):
        self._make_state = make_state
        self._report = report
        self.issued: List[ResilienceState] = []
        self.current: Optional[ResilienceState] = None
        self._folded = 0

    def fresh(self) -> ResilienceState:
        self.fold()
        state = self._make_state()
        _validate_fresh_state(state, self.issued)
        self.issued.append(state)
        self.current = state
        self._folded = 0
        return state

    def fold(self) -> None:
        """Move the current state's new events into the report."""
        if self.current is None:
            return
        new = self.current.events[self._folded:]
        self._folded = len(self.current.events)
        self._report.events.extend(new)
        self._report.corrected_in_place += sum(
            1 for event in new if event.kind == "corrected")
        self._report.detections += sum(
            1 for event in new if event.kind in ("due", "trap"))
        self._report.faults_fired = sum(
            1 for state in self.issued if state.fault_fired)


def _image_copy(checkpoint: MemorySpace) -> MemorySpace:
    memory = MemorySpace(len(checkpoint), name=checkpoint.name)
    memory.words[:] = checkpoint.words
    return memory


def _attempt_kernel(kernel: Kernel, launch: LaunchConfig,
                    memory: MemorySpace, supply: _StateSupply,
                    config: LadderConfig,
                    auditor: Optional[ContainmentAuditor],
                    report: LadderReport,
                    replaying_kernel: bool) -> Optional[str]:
    """One kernel-granularity attempt with rung-1 CTA replays inside.

    Returns None on success or the failure kind ("due", "trap", "hang",
    "crash") once this attempt's CTA-replay budget is exhausted.
    """
    register_count = max(kernel.register_count(), 1)
    watchdog = Watchdog(config.watchdog, name=kernel.name)
    watchdog.start()
    state = supply.fresh()
    keep_snapshots = auditor is not None or config.max_cta_replays > 0
    for cta_index in range(launch.grid_ctas):
        snapshot = memory.words.copy() if keep_snapshots else None
        cta_attempts = 0
        while True:
            before = watchdog.steps
            failure = None
            detail = ""
            try:
                run_functional_cta(kernel, launch, cta_index, memory,
                                   state, watchdog=watchdog,
                                   register_count=register_count)
            except KernelHalt as halt:
                failure = "trap" if halt.reason == "trap" else "due"
                detail = halt.reason
            except HangError as exc:
                failure = "hang"
                detail = str(exc)
                report.hangs += 1
            except SimulationError as exc:
                failure = "crash"
                detail = str(exc)
            executed = watchdog.steps - before
            report.total_instructions += executed
            if replaying_kernel or cta_attempts > 0:
                report.replayed_instructions += executed
            supply.fold()
            if failure is None:
                break  # CTA completed; move on
            report.detail = detail
            if failure in ("due", "trap") and auditor is not None \
                    and snapshot is not None:
                auditor.audit(cta_index, snapshot, executed, memory,
                              detail=detail)
                report.audits = auditor.audits
            if snapshot is None or cta_attempts >= config.max_cta_replays:
                return failure  # escalate to rung 2
            cta_attempts += 1
            report.cta_replays += 1
            memory.words[:] = snapshot
            watchdog.clear_cta(cta_index)
            state = supply.fresh()
    return None


def run_with_ladder(kernel: Kernel, launch: LaunchConfig,
                    checkpoint: MemorySpace,
                    make_state: Callable[[], ResilienceState],
                    config: Optional[LadderConfig] = None,
                    auditor: Optional[ContainmentAuditor] = None
                    ) -> LadderReport:
    """Run ``kernel`` under the full graceful-degradation ladder.

    ``checkpoint`` is the pristine input image (never mutated).
    ``make_state`` builds one fresh resilience state per attempt segment
    — the initial run, every rung-1 CTA replay, and every rung-2 kernel
    replay each consume one; a state that already fired raises
    :class:`~repro.errors.SimulationError` instead of silently running
    without injection.  Attach a :class:`ContainmentAuditor` to prove
    every detection halted before memory diverged.

    Never raises on unrecoverable errors: the report's ``outcome`` lands
    on ``"due"`` (or ``"hang"`` for persistent livelock) with the full
    telemetry — detections, scrub log, per-rung replay counts, and
    replayed-instruction overhead.
    """
    config = config if config is not None else LadderConfig()
    kernel.validate()
    report = LadderReport(outcome="due", memory=None)
    supply = _StateSupply(make_state, report)
    last_failure = None
    for attempt in range(config.max_kernel_replays + 1):
        replaying_kernel = attempt > 0
        if replaying_kernel:
            report.kernel_replays += 1
        memory = _image_copy(checkpoint)
        failure = _attempt_kernel(kernel, launch, memory, supply, config,
                                  auditor, report, replaying_kernel)
        if failure is None:
            report.memory = memory
            if report.kernel_replays:
                report.outcome = "kernel_replayed"
            elif report.cta_replays:
                report.outcome = "cta_replayed"
            elif report.corrected_in_place:
                report.outcome = "corrected"
            else:
                report.outcome = "ok"
            return report
        last_failure = failure
    report.outcome = "hang" if last_failure == "hang" else "due"
    return report


def run_with_recovery(kernel: Kernel, launch: LaunchConfig,
                      checkpoint: MemorySpace,
                      make_state: Callable[[], ResilienceState],
                      max_attempts: int = 3) -> RecoveryResult:
    """Run ``kernel``, re-executing from ``checkpoint`` on detected errors.

    The kernel-granularity compatibility rung (rung 2 only):
    ``checkpoint`` is the pristine input image (never mutated); each
    attempt runs on a fresh copy.  ``make_state`` must build a *fresh*
    resilience state per attempt — a transient fault plan fires on the
    first attempt only because its ``fault_fired`` latch is per state.
    Returning a state that already fired, or the same state twice, would
    silently degrade to zero injection, so it raises
    :class:`SimulationError` instead.  Also raises when every attempt was
    cut short.  For CTA-granularity replay, in-place correction, and
    hang handling, use :func:`run_with_ladder`.
    """
    if max_attempts < 1:
        raise SimulationError(
            f"{kernel.name}: max_attempts must be at least 1, "
            f"got {max_attempts}")
    detections = 0
    issued: List[ResilienceState] = []
    for attempt in range(1, max_attempts + 1):
        memory = _image_copy(checkpoint)
        state = make_state()
        _validate_fresh_state(state, issued)
        issued.append(state)
        run_functional(kernel, launch, memory, state)
        if not state.detected:
            return RecoveryResult(memory, attempt, detections)
        detections += 1
    raise SimulationError(
        f"{kernel.name}: still detecting errors after {max_attempts} "
        f"attempts ({detections} detections)")
