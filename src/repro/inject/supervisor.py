"""Supervision layer hardening the campaign engine for unattended runs.

The field study on long GPU error-measurement campaigns (PAPERS.md) found
that the *harness* — not the device under test — dominates lost trials:
runaway jobs, kill signals, crash-looping work, corrupted logs.  This
module supplies the campaign-side defenses, wired into
:class:`~repro.inject.engine.CampaignEngine` via its ``supervisor``
argument and switched on by default in both study entry points
(:func:`~repro.inject.campaign.run_full_campaign`,
:func:`~repro.experiments.figures_inject.run_injection_study`) and in
every holder of a sharded campaign (:mod:`repro.inject.fabric`):

**Resource-governed workers.**  :class:`ResourceBudget` caps each batch
worker with ``resource.setrlimit`` — an address-space cap that turns
memory hogs into ``MemoryError`` and a CPU-seconds cap whose SIGXCPU
handler raises :class:`~repro.errors.ResourceExhausted`.  Both trip
paths bin as the distinct ``resource_exhausted`` outcome instead of a
generic crash.  A worker that stalls any other way hits the engine's
per-attempt ``timeout_s`` and bins as ``hang``.

**Poison-unit quarantine.**  A unit whose batch attempts fail
``quarantine_after`` consecutive times (counting retries) is moved to a
dead-letter list: the engine journals ``unit_quarantined`` with every
captured traceback, the campaign *continues* with the remaining units,
and :class:`~repro.inject.engine.CampaignReport` lists quarantined work
separately.  A later resume keeps dead-lettered units parked instead of
crash-looping them again.

**Signal-safe shutdown.**  :meth:`CampaignSupervisor.install` hooks
SIGTERM/SIGINT to request a *drain*: the batches in flight get
``drain_deadline_s`` seconds to finish (then their workers are killed and
nothing partial is journaled), a ``campaign_paused`` record is written,
and the engine returns a report with ``paused=True``.  Because batch
seeds are pure functions of ``(unit params, batch index)``, a resumed
campaign reaches final counts identical to an uninterrupted run.
"""

from __future__ import annotations

import math
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from repro.errors import InjectionError, ResourceExhausted

_MB = 1024 * 1024

#: the signals a supervisor turns into a drain request
DRAIN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


@dataclass(frozen=True)
class ResourceBudget:
    """Per-worker resource caps, applied inside the worker subprocess.

    ``max_rss_mb`` bounds the worker's address space (``RLIMIT_AS`` —
    the enforceable proxy for RSS on Linux, where ``RLIMIT_RSS`` is a
    no-op): allocations past the cap fail with ``MemoryError`` instead
    of dragging the host into swap.  The cap holds for each worker, and
    the engine keeps one worker in flight per CPU in its affinity mask,
    so a campaign's workers together may reach that many times
    ``max_rss_mb``.  ``max_cpu_s`` bounds CPU seconds
    (``RLIMIT_CPU``): the soft limit's SIGXCPU raises
    :class:`~repro.errors.ResourceExhausted` in the worker, and a hard
    limit one second later is the kernel's SIGKILL backstop.  Budgets
    are a no-op under ``isolation="inline"`` (there is no subprocess to
    govern) and on platforms without the ``resource`` module.
    """

    max_rss_mb: Optional[float] = None
    max_cpu_s: Optional[float] = None

    def __post_init__(self):
        if self.max_rss_mb is not None and self.max_rss_mb <= 0:
            raise InjectionError(
                f"max_rss_mb must be positive (or None), got "
                f"{self.max_rss_mb}")
        if self.max_cpu_s is not None and self.max_cpu_s <= 0:
            raise InjectionError(
                f"max_cpu_s must be positive (or None), got "
                f"{self.max_cpu_s}")

    def apply(self) -> None:
        """Install the caps in the calling (worker) process."""
        try:
            import resource
        except ImportError:  # non-POSIX: budgets degrade to no-ops
            return
        if self.max_rss_mb is not None:
            _cap_rlimit(resource, resource.RLIMIT_AS,
                        int(self.max_rss_mb * _MB))
        if self.max_cpu_s is not None:
            soft = max(1, int(math.ceil(self.max_cpu_s)))
            _cap_rlimit(resource, resource.RLIMIT_CPU, soft, soft + 1)
            signal.signal(signal.SIGXCPU, _raise_cpu_exhausted)


def _cap_rlimit(resource, which: int, soft: int,
                hard: Optional[int] = None) -> None:
    """Lower ``which`` to ``soft`` without exceeding the current hard cap."""
    __, current_hard = resource.getrlimit(which)
    wanted_hard = soft if hard is None else hard
    if current_hard != resource.RLIM_INFINITY:
        wanted_hard = min(wanted_hard, current_hard)
        soft = min(soft, current_hard)
    resource.setrlimit(which, (soft, wanted_hard))


def _raise_cpu_exhausted(signum, frame) -> None:
    raise ResourceExhausted(
        "CPU budget exhausted (SIGXCPU from RLIMIT_CPU)")


@dataclass
class SupervisorConfig:
    """Policy knobs for one :class:`CampaignSupervisor`."""

    #: per-worker resource caps (None = ungoverned workers)
    budget: Optional[ResourceBudget] = None
    #: dead-letter a unit after this many consecutive failed batch
    #: attempts, counting retries (None = never quarantine: the first
    #: failed batch ends the unit as crashed/hung, PR 1 behavior)
    quarantine_after: Optional[int] = 5
    #: seconds an in-flight batch may keep running after a drain request
    #: before its worker is killed
    drain_deadline_s: float = 10.0

    def __post_init__(self):
        if self.quarantine_after is not None and self.quarantine_after < 1:
            raise InjectionError(
                f"quarantine_after must be >= 1 (or None), got "
                f"{self.quarantine_after}")
        if self.drain_deadline_s <= 0:
            raise InjectionError(
                f"drain_deadline_s must be positive, got "
                f"{self.drain_deadline_s}")


class CampaignSupervisor:
    """Drain coordination + hardening policy for one or more engine runs.

    Use as a context manager (or via :meth:`run`) so the signal hooks
    are installed for exactly the supervised window and the previous
    handlers are always restored::

        supervisor = CampaignSupervisor(SupervisorConfig(
            budget=ResourceBudget(max_rss_mb=2048, max_cpu_s=300)))
        report = supervisor.run(units, journal_path="campaign.jsonl")
        if report.paused:
            ...  # re-invoke with the same journal to resume

    The supervisor is reusable: a drained instance can be
    :meth:`reset` and run again (the resume path of pause/resume tests
    does exactly that).
    """

    def __init__(self, config: Optional[SupervisorConfig] = None):
        self.config = config if config is not None else SupervisorConfig()
        self._drain = threading.Event()
        self._drain_reason = ""
        self._drained_at: Optional[float] = None
        self._previous: dict = {}

    # -- drain state -------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once a drain was requested; the engine stops starting work."""
        return self._drain.is_set()

    @property
    def drain_reason(self) -> str:
        return self._drain_reason

    @property
    def drained_at(self) -> Optional[float]:
        """``time.monotonic()`` timestamp of the drain request, if any."""
        return self._drained_at

    def request_drain(self, reason: str = "drain requested") -> None:
        """Ask the engine to stop after the in-flight batch (idempotent)."""
        if not self._drain.is_set():
            self._drain_reason = reason
            self._drained_at = time.monotonic()
            self._drain.set()

    def reset(self) -> None:
        """Clear a previous drain so this supervisor can run again."""
        self._drain.clear()
        self._drain_reason = ""
        self._drained_at = None

    # -- signal hooks ------------------------------------------------------

    def _handle_signal(self, signum, frame) -> None:
        self.request_drain(f"signal {signal.Signals(signum).name}")

    def install(self) -> "CampaignSupervisor":
        """Hook :data:`DRAIN_SIGNALS`, remembering the old handlers.

        Skipped off the main thread, where CPython forbids ``signal()``.
        """
        try:
            for signum in DRAIN_SIGNALS:
                self._previous[signum] = signal.signal(
                    signum, self._handle_signal)
        except ValueError:
            # signal.signal outside the main thread: run unhooked —
            # quarantine and resource budgets still apply, and callers
            # can request_drain() programmatically.
            for signum, handler in self._previous.items():
                signal.signal(signum, handler)  # pragma: no cover
            self._previous.clear()
        return self

    def uninstall(self) -> None:
        """Restore whatever handlers :meth:`install` displaced."""
        while self._previous:
            signum, handler = self._previous.popitem()
            signal.signal(signum, handler)

    def __enter__(self) -> "CampaignSupervisor":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- convenience -------------------------------------------------------

    def run(self, units: Sequence[Any], journal_path: Optional[str] = None,
            engine_config: Any = None):
        """Run ``units`` on a fresh supervised engine; returns its report."""
        from repro.inject.engine import CampaignEngine
        engine = CampaignEngine(engine_config, supervisor=self)
        with self:
            return engine.run(units, journal_path)


def coerce_supervisor(value: Union[None, bool, SupervisorConfig,
                                   CampaignSupervisor]
                      ) -> Optional[CampaignSupervisor]:
    """Normalize the ``supervisor=`` argument study entry points accept.

    ``None`` builds the default supervisor (every entry point is
    hardened for free), ``False`` disables supervision outright, a
    :class:`SupervisorConfig` is wrapped, and an existing
    :class:`CampaignSupervisor` passes through (so one supervisor can
    span several studies and share a single drain flag).
    """
    if value is None:
        return CampaignSupervisor()
    if value is False:
        return None
    if isinstance(value, SupervisorConfig):
        return CampaignSupervisor(value)
    if isinstance(value, CampaignSupervisor):
        return value
    raise InjectionError(
        f"supervisor must be None, False, a SupervisorConfig, or a "
        f"CampaignSupervisor, got {type(value).__name__}")
