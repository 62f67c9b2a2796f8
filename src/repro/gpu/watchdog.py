"""Hang watchdogs for the GPU simulator.

Control-flow corruption — a struck loop counter, a branch predicate built
from a corrupted value on unprotected hardware — turns into livelock, and
field studies show hangs dominate real GPU error-handling cost alongside
DUEs.  Before this module, a livelocked kernel crawled to the 50M-step
limit and surfaced as a generic :class:`~repro.errors.SimulationError`,
indistinguishable from a simulator bug.

A :class:`Watchdog` watches three budgets and raises
:class:`~repro.errors.HangError` (a clean ``HANG`` verdict) when any is
exhausted:

* ``max_steps`` — total functional steps across the launch (the old
  ``run_functional`` limit, now correctly binned);
* ``max_warp_steps`` — per-warp instruction budget, which catches a
  single spinning warp long before the global budget drains;
* ``deadline_s`` — a wall-clock deadline, checked every
  ``deadline_check_interval`` steps to keep the hot path cheap.

One watchdog instance spans one kernel launch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import HangError, SimulationError


@dataclass(frozen=True)
class WatchdogConfig:
    """Budgets for one kernel launch (None disables a budget)."""

    #: total functional steps across every warp of the launch
    max_steps: Optional[int] = 50_000_000
    #: per-warp instruction budget (catches one spinning warp early)
    max_warp_steps: Optional[int] = None
    #: wall-clock deadline per launch, in seconds
    deadline_s: Optional[float] = None
    #: steps between wall-clock checks (amortizes the clock read)
    deadline_check_interval: int = 4096

    def __post_init__(self):
        for name in ("max_steps", "max_warp_steps"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise SimulationError(
                    f"{name} must be >= 1 (or None), got {value}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise SimulationError(
                f"deadline_s must be positive (or None), got "
                f"{self.deadline_s}")
        if self.deadline_check_interval < 1:
            raise SimulationError(
                f"deadline_check_interval must be >= 1, got "
                f"{self.deadline_check_interval}")


class Watchdog:
    """Step/deadline bookkeeping for one kernel launch."""

    def __init__(self, config: Optional[WatchdogConfig] = None,
                 name: str = "kernel",
                 clock: Callable[[], float] = time.monotonic):
        self.config = config if config is not None else WatchdogConfig()
        self.name = name
        self.steps = 0
        self.warp_steps: Dict[Tuple[int, int], int] = {}
        self._clock = clock
        self._started: Optional[float] = None
        self._since_deadline_check = 0

    def start(self) -> None:
        """Arm the wall-clock deadline (idempotent)."""
        if self._started is None:
            self._started = self._clock()

    def tick(self, cta_index: int, warp_index: int, count: int = 1) -> None:
        """Account ``count`` executed steps of one warp; raise on a hang."""
        config = self.config
        self.steps += count
        if config.max_steps is not None and self.steps > config.max_steps:
            raise HangError(
                f"{self.name}: exceeded {config.max_steps} functional "
                f"steps; runaway kernel?")
        if config.max_warp_steps is not None:
            key = (cta_index, warp_index)
            executed = self.warp_steps.get(key, 0) + count
            self.warp_steps[key] = executed
            if executed > config.max_warp_steps:
                raise HangError(
                    f"{self.name}: warp {warp_index} of CTA {cta_index} "
                    f"exceeded its {config.max_warp_steps}-instruction "
                    f"budget; livelock?")
        if config.deadline_s is not None:
            self._since_deadline_check += count
            if self._since_deadline_check >= config.deadline_check_interval:
                self._since_deadline_check = 0
                self.check_deadline()

    def check_deadline(self) -> None:
        """Raise when the wall-clock deadline has passed (if armed)."""
        deadline = self.config.deadline_s
        if deadline is None or self._started is None:
            return
        elapsed = self._clock() - self._started
        if elapsed > deadline:
            raise HangError(
                f"{self.name}: exceeded the {deadline:.1f}s wall-clock "
                f"deadline after {self.steps} steps ({elapsed:.1f}s)")
