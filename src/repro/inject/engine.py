"""Resilient fault-injection campaign engine (crash-isolated workers).

The paper's evaluation hinges on large injection campaigns, and a single
hung netlist sweep or crashing worker must not cost the whole run.  This
engine executes *work units* — gate-level unit campaigns and GPU-level
:class:`~repro.gpu.resilience.FaultPlan` sweeps — as sequences of batches,
each batch in a crash-isolated subprocess with a wall-clock timeout, and
keeps one such subprocess in flight per CPU:

* a worker that raises or dies is retried with exponential backoff, and a
  unit whose batches keep failing is *recorded* as ``crashed``/``hung`` in
  the outcome taxonomy (masked/SDC/DUE/trap/hang/crash/
  resource_exhausted) instead of aborting the campaign;
* every completed batch streams to an append-only JSONL journal
  (:mod:`repro.inject.journal`) in campaign order, however the units
  overlap, so an interrupted campaign resumes where it stopped —
  finished units are skipped, partial units continue after their last
  journaled batch;
* a Wilson-score early-stopping rule ends a unit's sweep once the
  monitored detection-rate confidence interval is tighter than a
  configurable half-width, and every report carries the interval, not
  just the point estimate.

A :class:`~repro.inject.supervisor.CampaignSupervisor` layers four more
defenses on top (resource-governed workers, poison-unit quarantine,
signal-safe drains, and CRC-verified journals via ``salvage``); see
:mod:`repro.inject.supervisor` for the policy objects and
:class:`CampaignEngine`'s ``supervisor`` argument for the wiring.

Two unit kinds ship registered: ``gate`` (:func:`gate_work_unit`,
run by :func:`run_gate_batch`) and ``gpu`` (:func:`gpu_work_unit`, run
by :func:`run_gpu_batch`).  Other kinds plug in through
:func:`register_unit_kind`; batch workers are forked, so they inherit
registered kinds and unit contexts.
"""

from __future__ import annotations

import math
import os
import random
import signal as _signal
import threading
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence)

import multiprocessing

from repro.errors import (HangError, InjectionError, ReproError,
                          ResourceExhausted, SimulationError)
from repro.inject.campaign import run_unit_campaign
from repro.inject.classify import detection_outcomes
from repro.inject.hamartia import CampaignResult, merge_results
from repro.inject.journal import Journal, JournalState, NullJournal

#: the expanded outcome taxonomy every unit report tallies;
#: ``resource_exhausted`` is the supervisor's verdict for workers that
#: blew an rlimit budget
OUTCOMES = ("masked", "sdc", "due", "trap", "hang", "crash",
            "resource_exhausted")

#: extra (non-terminal) outcome keys runners may report.  No runner sets
#: ``recovered``, ``cta_replayed`` or ``kernel_replayed``; they stay, at
#: zero, because the pinned campaign digests hash every key of a unit's
#: counts
EXTRA_OUTCOMES = ("not_hit", "recovered", "corrected_in_place",
                  "cta_replayed", "kernel_replayed")


def make_scheme(spec: str):
    """Build a register-file SwapCodes scheme from its Figure 11 name.

    Accepts ``parity``, ``modN`` (N a residue modulus), ``ted``,
    ``secded-dp`` and ``sec-dp`` — the spellings used throughout the
    figures and the campaign journals.
    """
    from repro.ecc import (DetectOnlySwap, ParityCode, ResidueCode,
                           SecDedDpSwap, SecDpSwap, TedCode)
    if spec == "parity":
        return DetectOnlySwap(ParityCode())
    if spec == "ted":
        return DetectOnlySwap(TedCode())
    if spec == "secded-dp":
        return SecDedDpSwap()
    if spec == "sec-dp":
        return SecDpSwap()
    if spec.startswith("mod"):
        try:
            modulus = int(spec[3:])
        except ValueError:
            raise InjectionError(f"bad residue scheme spec {spec!r}") \
                from None
        return DetectOnlySwap(ResidueCode(modulus))
    raise InjectionError(
        f"unknown scheme spec {spec!r}; expected parity/modN/ted/"
        f"secded-dp/sec-dp")


def wilson_interval(successes: int, trials: int,
                    z: float = 1.96) -> "WilsonEstimate":
    """Wilson score interval for a binomial proportion.

    Unlike the normal approximation it stays inside [0, 1] and behaves at
    the extremes (0 or all successes), which campaigns hit routinely.
    Zero trials is legal — a unit that crashed before producing data —
    and yields the uninformative estimate (rate 0, interval [0, 1]);
    more successes than trials, or a non-positive ``z``, is always a
    caller bug and raises.
    """
    if z <= 0:
        raise InjectionError(f"z must be positive, got {z}")
    if trials < 0:
        raise InjectionError(f"trials must be >= 0, got {trials}")
    if successes < 0:
        raise InjectionError(f"successes must be >= 0, got {successes}")
    if successes > trials:
        raise InjectionError(
            f"successes ({successes}) cannot exceed trials ({trials})")
    if trials == 0:
        return WilsonEstimate(0.0, 0.0, 1.0, 0, 0)
    p = successes / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denominator
    spread = (z / denominator) * math.sqrt(
        p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return WilsonEstimate(p, max(0.0, center - spread),
                          min(1.0, center + spread), trials, successes)


@dataclass(frozen=True)
class WilsonEstimate:
    """A proportion with its Wilson score confidence interval."""

    rate: float
    low: float
    high: float
    trials: int
    successes: int

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def __str__(self) -> str:
        return (f"{self.rate * 100:.2f}% "
                f"[{self.low * 100:.2f}%, {self.high * 100:.2f}%]")


@dataclass(frozen=True)
class BatchSpec:
    """One batch of injections inside a unit's sweep."""

    index: int
    size: int
    seed: int


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of campaign work.

    ``params`` must be JSON-serializable (it is journaled and checked on
    resume); ``context`` carries non-serializable extras — an
    :class:`~repro.inject.operands.OperandTrace`, a prebuilt workload
    instance — which reach fork-started workers by inheritance and are
    never journaled.
    """

    unit_id: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    context: Any = None


@dataclass
class EngineConfig:
    """Knobs for isolation, retry, batching, and early stopping."""

    #: injections per batch (one crash-isolated subprocess per batch)
    batch_size: int = 200
    #: hard cap on batches per unit
    max_batches: int = 8
    #: wall-clock seconds per batch attempt (None = wait forever)
    timeout_s: Optional[float] = 120.0
    #: extra attempts after the first failure of a batch
    max_retries: int = 2
    #: first retry delay; doubles each retry up to ``backoff_max_s``
    backoff_s: float = 0.25
    #: hard ceiling on any single retry delay — the exponential curve
    #: saturates here instead of growing unbounded
    backoff_max_s: float = 30.0
    #: stop a unit once the Wilson CI half-width shrinks below this
    #: (None disables early stopping)
    ci_half_width: Optional[float] = 0.02
    #: never early-stop before this many monitored trials
    min_trials: int = 50
    #: z-score of the confidence level (1.96 = 95%)
    z: float = 1.96
    #: "process" isolates batches in subprocesses; "inline" runs them in
    #: the engine process (no isolation — debugging and picky platforms)
    isolation: str = "process"
    #: fsync the journal after every record (slower, kill-proof)
    journal_fsync: bool = False
    #: tolerate mid-file journal corruption by truncating at the first
    #: bad record (deterministic seeds re-derive the lost batches);
    #: default False raises on any CRC/index/decode failure
    salvage: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise InjectionError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_batches < 1:
            raise InjectionError(
                f"max_batches must be >= 1, got {self.max_batches}")
        if self.max_retries < 0:
            raise InjectionError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise InjectionError(
                f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_max_s <= 0:
            raise InjectionError(
                f"backoff_max_s must be positive, got {self.backoff_max_s}")
        if self.ci_half_width is not None and self.ci_half_width <= 0:
            raise InjectionError(
                f"ci_half_width must be positive (or None), got "
                f"{self.ci_half_width}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise InjectionError(
                f"timeout_s must be positive (or None), got "
                f"{self.timeout_s}")
        if self.z <= 0:
            raise InjectionError(f"z must be positive, got {self.z}")
        if self.isolation not in ("process", "inline"):
            raise InjectionError(
                f"unknown isolation {self.isolation!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "batch_size": self.batch_size, "max_batches": self.max_batches,
            "timeout_s": self.timeout_s, "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "backoff_max_s": self.backoff_max_s,
            "ci_half_width": self.ci_half_width,
            "min_trials": self.min_trials, "z": self.z,
            "isolation": self.isolation,
        }


@dataclass
class UnitReport:
    """Terminal outcome of one work unit.

    ``status`` is one of ``completed``, ``crashed``, ``hung``,
    ``resource_exhausted`` (rlimit budget trip), ``quarantined``
    (dead-lettered after repeated consecutive failures), or ``paused``
    (a drain stopped the unit mid-sweep; a resume will finish it).
    """

    unit_id: str
    kind: str
    status: str
    counts: Dict[str, int]
    trials: int
    successes: int
    batches: int
    retries: int
    stopped_early: bool
    resumed: bool
    estimate: WilsonEstimate
    detail: str = ""
    payloads: List[Dict[str, Any]] = field(default_factory=list)
    #: one entry per failed batch attempt (outcome, detail, traceback)
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.status != "completed"

    def summary(self) -> Dict[str, Any]:
        """The JSON-serializable digest journaled in ``unit_done``."""
        return {
            "counts": dict(self.counts), "trials": self.trials,
            "successes": self.successes, "batches": self.batches,
            "retries": self.retries, "stopped_early": self.stopped_early,
            "detail": self.detail,
        }


@dataclass
class CampaignReport:
    """Every unit's report, in campaign order."""

    units: Dict[str, UnitReport]
    journal_path: Optional[str] = None
    #: True when a drain (signal or request_drain) stopped the campaign
    #: early; re-run against the same journal to resume
    paused: bool = False
    #: why the drain happened (e.g. "signal SIGTERM")
    drain_reason: str = ""
    #: unit ids a drain prevented from starting, in campaign order
    pending: List[str] = field(default_factory=list)
    #: every typed ``journal_salvaged`` event behind this campaign — a
    #: salvage-mode open truncated complete records away (each entry
    #: carries ``dropped_records``, ``last_good_rix``, ``corrupt_line``)
    salvage_events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def salvaged_records(self) -> int:
        """Total journal records lost to salvage truncations."""
        return sum(event.get("dropped_records", 0)
                   for event in self.salvage_events)

    @property
    def completed(self) -> List[str]:
        return [unit_id for unit_id, report in self.units.items()
                if not report.failed]

    @property
    def failed(self) -> List[str]:
        return [unit_id for unit_id, report in self.units.items()
                if report.failed]

    @property
    def quarantined(self) -> List[str]:
        """Dead-lettered units, reported apart from ordinary failures."""
        return [unit_id for unit_id, report in self.units.items()
                if report.status == "quarantined"]

    def total_counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for report in self.units.values():
            for outcome, count in report.counts.items():
                totals[outcome] = totals.get(outcome, 0) + count
        return totals


# ---------------------------------------------------------------------------
# batch runners

_RUNNERS: Dict[str, Callable[[Dict[str, Any], Any, BatchSpec],
                             Dict[str, Any]]] = {}


def register_unit_kind(kind: str, runner: Callable,
                       replace: bool = False) -> None:
    """Register a batch runner for a new work-unit kind.

    ``runner(params, context, batch)`` executes ``batch.size`` injections
    and returns ``{"trials": int, "successes": int, "counts": {...}}``
    plus an optional JSON-serializable ``"payload"``.  It must be a
    module-level callable (worker processes import it by reference).
    """
    if kind in _RUNNERS and not replace:
        raise InjectionError(f"unit kind {kind!r} already registered")
    _RUNNERS[kind] = runner


def unit_runner(kind: str) -> Callable:
    """The registered batch runner for ``kind``.

    How a failed batch reruns inline from its journal:
    ``unit_runner(kind)(params, None, BatchSpec(batch, batch_size,
    seed))`` with the ``unit_started`` kind and params, the ``config``
    record's ``batch_size``, and the ``batch`` and ``seed`` of an entry
    in the failure log the unit's terminal record carries.
    """
    runner = _RUNNERS.get(kind)
    if runner is None:
        raise InjectionError(
            f"unknown unit kind {kind!r}; registered kinds: "
            f"{sorted(_RUNNERS)}")
    return runner


def _empty_counts() -> Dict[str, int]:
    counts = dict.fromkeys(OUTCOMES, 0)
    counts.update(dict.fromkeys(EXTRA_OUTCOMES, 0))
    return counts


def run_gate_batch(params: Dict[str, Any], context: Any,
                   batch: BatchSpec) -> Dict[str, Any]:
    """One batch of a gate-level unit campaign (Hamartia methodology).

    Without a ``scheme`` the monitored proportion is the unmasked-error
    rate (all unmasked errors are SDCs on unprotected hardware); with a
    ``scheme`` it is the detection rate among unmasked errors, the
    quantity Figure 11 bounds.  Detection is classified for the whole
    batch in one vectorized decoder pass
    (:func:`~repro.inject.classify.detection_outcomes`) rather than one
    scalar decode per trial.
    """
    trace = context.get("trace") if isinstance(context, dict) else None
    result = run_unit_campaign(
        params["unit"], sample_count=batch.size,
        site_count=params.get("site_count"), seed=batch.seed, trace=trace)
    counts = _empty_counts()
    scheme_spec = params.get("scheme")
    scheme = make_scheme(scheme_spec) if scheme_spec else None
    masked = sum(1 for record in result.chosen if record is None)
    counts["masked"] = masked
    if scheme is None:
        counts["sdc"] = len(result.records)
        trials = result.sample_count
        successes = len(result.records)
    else:
        detected = int(detection_outcomes(scheme, result).sum())
        counts["due"] = detected
        counts["sdc"] = len(result.records) - detected
        trials = len(result.records)
        successes = detected
    return {"trials": trials, "successes": successes, "counts": counts,
            "payload": result.to_dict()}


def _tally_gpu_outcome(counts: Dict[str, int], state: Any, outcome: str,
                       verify: Callable[[], bool]):
    """Bin one GPU fault trial; returns its (trials, successes) increment.

    The single classification used by the scalar loop
    (:func:`_run_trials_scalar`), the batched tensor path, and its
    scalar fallback reruns — one code path is what keeps `tensor=True`
    count-identical to `tensor=False`.  ``outcome`` is
    ``"hang"``/``"crash"`` for runs that died, anything else for runs
    that returned a state; ``verify`` is only called when the memory
    image actually decides the bin (fault fired, nothing detected).
    """
    if outcome == "hang":
        counts["hang"] += 1
        return 1, 1
    if outcome == "crash":
        counts["crash"] += 1
        return 1, 1
    if state.detected:
        kind = "trap" if any(event.kind == "trap"
                             for event in state.events) else "due"
        counts[kind] += 1
        return 1, 1
    if not state.fault_fired:
        counts["not_hit"] += 1
        return 0, 0
    if verify():
        if any(event.kind == "corrected" for event in state.events):
            counts["corrected_in_place"] += 1
        counts["masked"] += 1
        return 1, 0
    counts["sdc"] += 1
    return 1, 0


def _scalar_gpu_trial(kernel, launch, instance, state, max_steps):
    """Run one scalar oracle trial; returns (outcome, memory)."""
    from repro.gpu.device import run_functional

    memory = instance.fresh_memory()
    try:
        run_functional(kernel, launch, memory, state, max_steps=max_steps)
    except HangError:
        return "hang", memory
    except SimulationError:
        return "crash", memory
    return "ok", memory


def _draw_plan(rng: random.Random, launch: Any, occurrence_max: int,
               where: str):
    """One random single-bit :class:`~repro.gpu.resilience.FaultPlan`."""
    from repro.gpu.resilience import FaultPlan

    return FaultPlan(
        cta_index=rng.randrange(launch.grid_ctas),
        warp_index=rng.randrange(launch.warps_per_cta),
        occurrence=rng.randrange(occurrence_max),
        lane=rng.randrange(min(32, launch.threads_per_cta)),
        bit=rng.randrange(32), where=where)


def _state_factory(mode: str, code: str):
    """``fresh_state(fault, scheme=None)`` for one batch's trials.

    Builds a :class:`~repro.gpu.resilience.ResilienceState` under
    ``mode``; swap modes get a new ``code`` scheme per call unless a
    shared (immutable) one is passed in.
    """
    from repro.gpu.resilience import ResilienceState

    def fresh_state(fault: Any, scheme_instance: Any = None):
        if mode != "swap":
            scheme_instance = None
        elif scheme_instance is None:
            scheme_instance = make_scheme(code)
        return ResilienceState(mode=mode, scheme=scheme_instance,
                               fault=fault)
    return fresh_state


def _run_trials_scalar(instance, kernel, launch, plans, fresh_state,
                       max_steps: int) -> Dict[str, Any]:
    """Run a plan list one scalar oracle trial at a time.

    Every trial bins through :func:`_tally_gpu_outcome`, like the
    tensor path.
    """
    counts = _empty_counts()
    trials = 0
    successes = 0
    for plan in plans:
        state = fresh_state(plan)
        outcome, memory = _scalar_gpu_trial(kernel, launch, instance,
                                            state, max_steps)
        t_inc, s_inc = _tally_gpu_outcome(
            counts, state, outcome, lambda: instance.verify(memory))
        trials += t_inc
        successes += s_inc
    return {"trials": trials, "successes": successes, "counts": counts}


def _run_trials_tensor(instance, kernel, launch, plans, fresh_state,
                       max_steps: int, trial_batch: int) -> Dict[str, Any]:
    """Run a plan list through the trial-batched tensor executor.

    Chunks the plans into ``trial_batch``-sized
    :func:`repro.gpu.tensor.run_trials` sweeps and classifies each trial
    with the same tally as the scalar loop.  Trials the batched executor
    flags ``fallback`` (cross-trial divergent barrier arrival, or a
    batch that died at union level) rerun through the scalar oracle with
    a fresh state, so the returned counts are exactly what the scalar
    loop would have produced — the batched path is an optimization, not
    an approximation.
    """
    from repro.gpu.tensor import run_trials

    counts = _empty_counts()
    trials = 0
    successes = 0
    fallbacks = 0
    fallback_reasons: Dict[str, int] = {}
    # Swap schemes are immutable after construction (per-trial state
    # lives in ResilienceState/TaintTracker), so one codec instance
    # serves every trial — constructing one per trial would dominate
    # the batched runtime.
    shared_scheme = fresh_state(None).scheme
    for start in range(0, len(plans), max(1, trial_batch)):
        chunk = plans[start:start + max(1, trial_batch)]
        states = [fresh_state(plan, shared_scheme) for plan in chunk]
        result = run_trials(kernel, launch, instance.memory.words, states,
                            max_steps=max_steps)
        for index, plan in enumerate(chunk):
            outcome = result.outcomes[index]
            state = result.states[index]
            if outcome == "fallback":
                fallbacks += 1
                reason = result.fallback_reasons[index] or "unattributed"
                fallback_reasons[reason] = \
                    fallback_reasons.get(reason, 0) + 1
                state = fresh_state(plan)
                outcome, memory = _scalar_gpu_trial(
                    kernel, launch, instance, state, max_steps)
                verify = (lambda memory=memory:
                          instance.verify(memory))
            else:
                verify = (lambda index=index:
                          instance.verify(result.memory.space_of(index)))
            t_inc, s_inc = _tally_gpu_outcome(counts, state, outcome,
                                              verify)
            trials += t_inc
            successes += s_inc
    payload: Dict[str, Any] = {"executor": "tensor",
                               "fallbacks": fallbacks}
    if fallback_reasons:
        # Per-cause attribution (divergent_barrier / union_error /
        # union_deadlock) so campaign reports show *why* the batched
        # path punted trials to the scalar oracle.
        payload["fallback_reasons"] = dict(sorted(
            fallback_reasons.items()))
    return {"trials": trials, "successes": successes, "counts": counts,
            "payload": payload}


def run_gpu_batch(params: Dict[str, Any], context: Any,
                  batch: BatchSpec) -> Dict[str, Any]:
    """One batch of a GPU-level FaultPlan sweep over a workload kernel.

    Each trial injects one random single-bit datapath transient
    (:class:`~repro.gpu.resilience.FaultPlan`) into a fresh run and
    classifies the outcome; the monitored proportion is the detection
    rate (DUE + trap + crash) among architecturally visible faults.

    By default the batch runs through the trial-batched tensor executor
    (:mod:`repro.gpu.tensor`), ``trial_batch`` plans per sweep;
    ``tensor=False`` forces the scalar per-trial loop.  Both paths draw
    identical fault plans from the batch seed and bin identically —
    pinned by the equivalence tests in ``tests/gpu/test_tensor.py``.
    """
    from repro.compiler import compile_for_scheme, resilience_mode
    from repro.workloads import get_workload

    instance = context.get("instance") if isinstance(context, dict) else None
    if instance is None:
        instance = get_workload(params["workload"]).build(
            scale=params.get("scale", 0.25),
            seed=params.get("build_seed", 1))
    scheme = params.get("compile_scheme", "swap-ecc")
    compiled = compile_for_scheme(instance.kernel, instance.launch, scheme)
    launch = compiled.adjust_launch(instance.launch)
    mode = resilience_mode(scheme)
    code = params.get("code", "secded-dp")
    occurrence_max = params.get("occurrence_max", 60)
    where = params.get("where", "result")
    max_steps = params.get("max_steps", 50_000_000)

    rng = random.Random(batch.seed)
    plans = [_draw_plan(rng, instance.launch, occurrence_max, where)
             for _ in range(batch.size)]
    fresh_state = _state_factory(mode, code)

    if params.get("tensor", True):
        return _run_trials_tensor(
            instance, compiled.kernel, launch, plans, fresh_state,
            max_steps, params.get("trial_batch", 2048))
    return _run_trials_scalar(instance, compiled.kernel, launch, plans,
                              fresh_state, max_steps)


register_unit_kind("gate", run_gate_batch)
register_unit_kind("gpu", run_gpu_batch)


def gate_work_unit(name: str, site_count: Optional[int] = 300,
                   seed: int = 0, scheme: Optional[str] = None,
                   trace: Any = None,
                   unit_id: Optional[str] = None) -> WorkUnit:
    """A gate-level campaign work unit for one Figure 10 arithmetic unit."""
    params: Dict[str, Any] = {"unit": name, "site_count": site_count,
                              "seed": seed}
    if scheme is not None:
        params["scheme"] = scheme
    return WorkUnit(unit_id=unit_id or name, kind="gate", params=params,
                    context={"trace": trace} if trace is not None else None)


def gpu_work_unit(workload: str, compile_scheme: str = "swap-ecc",
                  scale: float = 0.25, build_seed: int = 1, seed: int = 0,
                  code: str = "secded-dp", occurrence_max: int = 60,
                  where: str = "result", tensor: bool = True,
                  trial_batch: int = 2048,
                  unit_id: Optional[str] = None) -> WorkUnit:
    """A GPU-level FaultPlan sweep work unit over one workload kernel.

    ``tensor`` selects the trial-batched executor (``trial_batch``
    plans per sweep); ``tensor=False`` pins the scalar per-trial loop.
    Counts are identical either way — see :func:`run_gpu_batch`.
    """
    params = {"workload": workload, "compile_scheme": compile_scheme,
              "scale": scale, "build_seed": build_seed, "seed": seed,
              "code": code, "occurrence_max": occurrence_max,
              "where": where, "tensor": tensor, "trial_batch": trial_batch}
    return WorkUnit(unit_id=unit_id or f"{workload}/{compile_scheme}",
                    kind="gpu", params=params)


# ---------------------------------------------------------------------------
# crash-isolated execution

#: spacing between batch seeds so batch 0 reproduces the legacy
#: single-shot campaign exactly while later batches stay uncorrelated
_BATCH_SEED_STRIDE = 1000003


def _batch_seed(params: Dict[str, Any], index: int) -> int:
    return params.get("seed", 0) + index * _BATCH_SEED_STRIDE


def _retry_delay(config: "EngineConfig", seed: int, attempts: int) -> float:
    """Capped exponential backoff with deterministic seed-derived jitter.

    The exponential curve saturates at ``backoff_max_s`` (unbounded
    growth once stalled whole campaigns for hours on flaky hosts), and
    the jitter fraction is drawn from a PRNG keyed on the batch seed —
    itself a pure function of the unit seed — so sharded re-executions
    of the same unit desynchronize their retry storms identically on
    every replay.
    """
    capped = min(config.backoff_s * (2 ** (attempts - 1)),
                 config.backoff_max_s)
    fraction = random.Random(seed * 1000003 + attempts).random()
    return capped * (0.5 + 0.5 * fraction)


def _failure(exc: BaseException) -> Dict[str, Any]:
    """The JSON-serializable failure description shipped to the engine.

    :class:`~repro.errors.ReproError` failures additionally carry their
    full typed record (code, severity, recoverable, context), so the
    journaled failure log keeps the structured diagnosis, not just the
    formatted message.
    """
    failure: Dict[str, Any] = {
        "message": f"{type(exc).__name__}: {exc}",
        "traceback": _traceback.format_exc()}
    if isinstance(exc, ReproError):
        failure["error"] = exc.to_record()
    return failure


def _worker_entry(runner, params, context, batch, conn,
                  budget=None) -> None:
    """Subprocess entry: apply the budget, run one batch, send the result.

    ``conn.send`` pickles here, in the worker, so a payload that cannot
    be pickled becomes an ``error`` outcome.  Budget trips —
    ``MemoryError`` from the address-space cap,
    :class:`~repro.errors.ResourceExhausted` from the CPU cap's SIGXCPU
    handler — are reported as the distinct ``resource_exhausted``
    outcome; everything else stays a generic ``error``.
    """
    try:
        if budget is not None:
            budget.apply()
        conn.send(("ok", runner(params, context, batch)))
    except (MemoryError, ResourceExhausted) as exc:
        try:
            conn.send(("resource_exhausted", _failure(exc)))
        except Exception:
            os._exit(71)
    except BaseException as exc:  # noqa: BLE001 — isolation boundary
        try:
            conn.send(("error", _failure(exc)))
        except Exception:
            os._exit(70)


def _failure_detail(payload: Any) -> str:
    """Human-readable one-liner for a failure payload (dict or string)."""
    if isinstance(payload, dict):
        return str(payload.get("message", payload))
    return str(payload)


def _failure_traceback(payload: Any) -> str:
    if isinstance(payload, dict):
        return str(payload.get("traceback", ""))
    return ""


#: how a terminal batch failure lands in the outcome tally / unit status
_FAILURE_BINS = {"hung": "hang", "resource_exhausted": "resource_exhausted"}
_FAILURE_STATUS = {"hung": "hung",
                   "resource_exhausted": "resource_exhausted"}


class _Attempt(NamedTuple):
    """One batch attempt that a unit's steps ask to have run."""

    runner: Callable
    unit: WorkUnit
    batch: BatchSpec
    #: seconds to wait before running it: a retry's backoff, else 0
    delay: float


def _call_runner(attempt: _Attempt):
    """Run one attempt in this process; ``(outcome, payload)``."""
    try:
        return "ok", attempt.runner(attempt.unit.params, attempt.unit.context,
                                    attempt.batch)
    except (MemoryError, ResourceExhausted) as exc:
        return "resource_exhausted", _failure(exc)
    except Exception as exc:  # noqa: BLE001 — isolation boundary
        return "error", _failure(exc)


def _stop(worker) -> None:
    """Kill ``worker`` if it still runs, and reap it."""
    if worker.is_alive():
        worker.kill()
    worker.join()


class _UnitRecords(NullJournal):
    """One unit's journal records, held until every earlier unit is done.

    A journal lists its units in campaign order, so a unit that runs
    ahead of an earlier one keeps its records here.  :meth:`release`
    writes them once the unit is the lowest unfinished one; from then
    on its records go straight to the journal.  A kill loses only what
    is held, and a resume reruns it from its batch seeds.
    """

    def __init__(self, journal: Journal):
        super().__init__()
        self.journal = journal
        self.held: Optional[List[Dict[str, Any]]] = []

    def append(self, record: Dict[str, Any]) -> None:
        if self.held is None:
            self.journal.append(record)
        else:
            self.held.append(record)

    def release(self) -> None:
        held, self.held = self.held, None
        for record in held:
            self.journal.append(record)


def _stop_point(units: Sequence[WorkUnit],
                reports: List[Optional[UnitReport]]):
    """Where a run stopped: ``(reports, in_flight, pending)``.

    The reports are those of the units before the first one without a
    terminal report, plus that unit's own if it paused (then it is
    ``in_flight``: it has a journaled ``unit_started`` and no terminal
    record).  ``pending`` is every unit after it, or from it on when it
    never started.  Reports of later units are left out: their records
    were held, never journaled.
    """
    done: Dict[str, UnitReport] = {}
    ids = [unit.unit_id for unit in units]
    for position, report in enumerate(reports):
        if report is None:
            return done, None, ids[position:]
        done[ids[position]] = report
        if report.status == "paused":
            return done, ids[position], ids[position + 1:]
    return done, None, []


class CampaignEngine:
    """Runs work units to completion with isolation, retry, and resume.

    An optional :class:`~repro.inject.supervisor.CampaignSupervisor`
    adds resource-governed workers, poison-unit quarantine, and
    signal-safe drains; without one, the first failed batch ends its
    unit and signals kill the process.
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 supervisor: Any = None):
        self.config = config if config is not None else EngineConfig()
        self.supervisor = supervisor

    # -- public API --------------------------------------------------------

    def run(self, units: Sequence[WorkUnit],
            journal_path: Optional[str] = None,
            journal_header: Optional[Dict[str, Any]] = None
            ) -> CampaignReport:
        """Run ``units``, journaling to ``journal_path`` in campaign order.

        With a journal path, a prior journal at that path is replayed
        first: units it records as done are skipped (their reports are
        reconstructed from the journal), quarantined units stay
        dead-lettered, and partially-swept units resume after their
        last completed batch.  Units run side by side, one batch worker
        per CPU (:meth:`_schedule`), but the journal and the report list
        them in the order given.  A drain request (supervised SIGTERM/
        SIGINT) stops the campaign at the next safe point, journals
        ``campaign_paused``, and returns a report with ``paused=True``.
        """
        ids = [unit.unit_id for unit in units]
        if len(set(ids)) != len(ids):
            raise InjectionError(f"duplicate unit ids in campaign: {ids}")
        state = JournalState.load(journal_path,
                                  salvage=self.config.salvage) \
            if journal_path else JournalState()
        self._check_config(state)
        journal = Journal(journal_path, fsync=self.config.journal_fsync,
                          salvage=self.config.salvage,
                          header=journal_header) \
            if journal_path else NullJournal()
        if journal_path and state.config is None:
            journal.append({"type": "config",
                            "config": self.config.to_dict()})
        reports: List[Optional[UnitReport]] = [None] * len(units)
        try:
            if self.config.isolation == "inline":
                self._run_in_order(units, state, journal, reports)
            else:
                self._schedule(units, state, journal, reports,
                               self._slots())
            done, in_flight, pending = _stop_point(units, reports)
            paused = in_flight is not None or bool(pending)
            if paused:
                journal.campaign_paused(self._drain_reason(), in_flight,
                                        pending)
        finally:
            journal.close()
        salvage_events = list(state.salvage_events)
        if journal.salvage_event is not None:
            salvage_events.append(journal.salvage_event)
        return CampaignReport(units=done, journal_path=journal_path,
                              paused=paused,
                              drain_reason=self._drain_reason(),
                              pending=pending,
                              salvage_events=salvage_events)

    # -- supervisor plumbing -----------------------------------------------

    def _draining(self) -> bool:
        return self.supervisor is not None and self.supervisor.draining

    def _drain_reason(self) -> str:
        return self.supervisor.drain_reason if self._draining() else ""

    def _quarantine_after(self) -> Optional[int]:
        if self.supervisor is None:
            return None
        return self.supervisor.config.quarantine_after

    def _budget(self):
        if self.supervisor is None:
            return None
        return self.supervisor.config.budget

    #: config fields that shape the statistics a journal accumulates;
    #: operational knobs (timeouts, retries, isolation) may change freely
    #: between resumptions
    _STATISTICAL_KNOBS = ("batch_size", "max_batches", "ci_half_width",
                          "min_trials", "z")

    def _check_config(self, state: JournalState) -> None:
        """Refuse to resume a journal swept under a different design."""
        if state.config is None:
            return
        current = self.config.to_dict()
        for knob in self._STATISTICAL_KNOBS:
            if knob in state.config and state.config[knob] != current[knob]:
                raise InjectionError(
                    f"journal {state.path!r} was recorded with "
                    f"{knob}={state.config[knob]!r} but this run uses "
                    f"{knob}={current[knob]!r}; use a fresh journal path "
                    f"for a reconfigured campaign")

    # -- unit execution ----------------------------------------------------

    def _replay_unit(self, unit: WorkUnit,
                     state: JournalState) -> UnitReport:
        """Rebuild a finished unit's report from its journal records.

        Failed units replay with the failure log their terminal record
        journaled, so resumed campaigns still report the typed errors
        and tracebacks that ended them.
        """
        done = state.finished[unit.unit_id]
        summary = done.get("summary", {})
        counts = _empty_counts()
        counts.update(summary.get("counts", {}))
        trials = summary.get("trials", 0)
        successes = summary.get("successes", 0)
        payloads = [record["payload"]
                    for record in state.batches.get(unit.unit_id, [])
                    if "payload" in record]
        return UnitReport(
            unit_id=unit.unit_id, kind=unit.kind, status=done["status"],
            counts=counts, trials=trials, successes=successes,
            batches=summary.get("batches", 0),
            retries=summary.get("retries", 0),
            stopped_early=summary.get("stopped_early", False),
            resumed=True,
            estimate=wilson_interval(successes, trials, self.config.z),
            detail=summary.get("detail", ""), payloads=payloads,
            failures=done.get("failures", []))

    def _unit_steps(self, unit: WorkUnit, state: JournalState,
                    journal: Journal):
        """One unit's sweep, as a generator of batch attempts.

        Yields an :class:`_Attempt` for each batch attempt and is sent
        its ``(outcome, payload)``; returns the unit's
        :class:`UnitReport`.  A unit the journal records as finished
        returns at once with its replayed report.  The caller decides
        how an attempt runs: :meth:`_run_in_order` calls the runner,
        :meth:`_schedule` forks a worker.
        """
        state.check_params(unit.unit_id, unit.params)
        if unit.unit_id in state.finished:
            return self._replay_unit(unit, state)
        runner = unit_runner(unit.kind)
        config = self.config
        if unit.unit_id not in state.started:
            journal.unit_started(unit.unit_id, unit.kind, unit.params)

        counts = _empty_counts()
        trials = 0
        successes = 0
        retries = 0
        payloads: List[Dict[str, Any]] = []
        resumed = False
        for record in state.batches.get(unit.unit_id, []):
            resumed = True
            trials += record["trials"]
            successes += record["successes"]
            for outcome, count in record["counts"].items():
                counts[outcome] = counts.get(outcome, 0) + count
            if "payload" in record:
                payloads.append(record["payload"])
        batches_done = state.next_batch_index(unit.unit_id)

        quarantine_after = self._quarantine_after()
        status = "completed"
        detail = ""
        stopped_early = False
        streak = 0  # consecutive failed attempts, reset by any success
        failure_log: List[Dict[str, Any]] = []
        while batches_done < config.max_batches:
            if self._draining():
                status = "paused"
                break
            if self._interval_tight_enough(successes, trials):
                stopped_early = True
                break
            batch = BatchSpec(index=batches_done, size=config.batch_size,
                              seed=_batch_seed(unit.params, batches_done))
            attempt_budget = None if quarantine_after is None else \
                max(1, quarantine_after - streak)
            outcome, payload, attempts, failures = \
                yield from self._batch_attempts(runner, unit, batch,
                                                attempt_budget)
            retries += attempts - 1
            failure_log.extend(failures)
            if outcome == "paused":
                status = "paused"
                break
            if outcome == "ok":
                streak = 0
                counts_in = payload.get("counts", {})
                for key, count in counts_in.items():
                    counts[key] = counts.get(key, 0) + count
                trials += payload["trials"]
                successes += payload["successes"]
                journal.batch(unit.unit_id, batch.index, payload["trials"],
                              payload["successes"], counts_in, attempts,
                              payload.get("payload"))
                if payload.get("payload") is not None:
                    payloads.append(payload["payload"])
                batches_done += 1
                continue
            # every attempt of this batch failed
            streak += len(failures)
            if quarantine_after is not None and streak < quarantine_after:
                continue  # supervised: re-attempt the same batch index
            detail = _failure_detail(payload)
            counts[_FAILURE_BINS.get(outcome, "crash")] += 1
            if quarantine_after is not None:
                status = "quarantined"
            else:
                status = _FAILURE_STATUS.get(outcome, "crashed")
            break

        report = UnitReport(
            unit_id=unit.unit_id, kind=unit.kind, status=status,
            counts=counts, trials=trials, successes=successes,
            batches=batches_done, retries=retries,
            stopped_early=stopped_early, resumed=resumed,
            estimate=wilson_interval(successes, trials, config.z),
            detail=detail, payloads=payloads, failures=failure_log)
        if status == "paused":
            pass  # no terminal record: a resume finishes the sweep
        elif status == "quarantined":
            journal.unit_quarantined(unit.unit_id, report.summary(),
                                     failure_log)
        else:
            journal.unit_done(unit.unit_id, status, report.summary(),
                              failure_log)
        return report

    def _interval_tight_enough(self, successes: int, trials: int) -> bool:
        config = self.config
        if config.ci_half_width is None or trials < config.min_trials:
            return False
        estimate = wilson_interval(successes, trials, config.z)
        return estimate.half_width <= config.ci_half_width

    def _batch_attempts(self, runner, unit: WorkUnit, batch: BatchSpec,
                        attempt_budget: Optional[int] = None):
        """Attempt one batch until it succeeds or its retries run out.

        A generator: yields each :class:`_Attempt` and is sent its
        ``(outcome, payload)``.  Returns ``(outcome, payload_or_detail,
        attempts, failures)``, where ``failures`` carries one record per
        failed attempt (batch index and seed, outcome, message,
        traceback) for the unit's terminal journal record.
        ``attempt_budget`` caps total attempts below the configured
        retry allowance — the supervisor passes the distance to its
        quarantine threshold so the streak lands exactly on it.
        """
        config = self.config
        max_attempts = config.max_retries + 1
        if attempt_budget is not None:
            max_attempts = min(max_attempts, attempt_budget)
        attempts = 0
        delay = 0.0
        failures: List[Dict[str, Any]] = []
        while True:
            attempts += 1
            outcome, payload = yield _Attempt(runner, unit, batch, delay)
            if outcome in ("ok", "paused"):
                return outcome, payload, attempts, failures
            failure = {
                "batch": batch.index, "seed": batch.seed,
                "attempt": attempts, "outcome": outcome,
                "detail": _failure_detail(payload),
                "traceback": _failure_traceback(payload)}
            if isinstance(payload, dict) and \
                    isinstance(payload.get("error"), dict):
                # keep the typed ReproError record (code, severity,
                # context) alongside the formatted message
                failure["error"] = payload["error"]
            failures.append(failure)
            # hangs are usually sticky: a timed-out batch is not retried
            retryable = outcome in ("error", "crashed",
                                    "resource_exhausted")
            if not retryable or attempts >= max_attempts or \
                    self._draining():
                return outcome, payload, attempts, failures
            delay = _retry_delay(config, batch.seed, attempts)

    # -- running the steps -------------------------------------------------

    def _run_in_order(self, units: Sequence[WorkUnit], state: JournalState,
                      journal: Journal,
                      reports: List[Optional[UnitReport]]) -> None:
        """``isolation="inline"``: each unit in turn, in this process."""
        for position, unit in enumerate(units):
            if self._draining():
                return
            steps = self._unit_steps(unit, state, journal)
            result = None
            try:
                while True:
                    attempt = steps.send(result)
                    time.sleep(attempt.delay)
                    result = _call_runner(attempt)
            except StopIteration as stop:
                reports[position] = stop.value
            if reports[position].status == "paused":
                return

    def _slots(self) -> int:
        """How many batch workers to keep in flight: one per CPU.

        One while another thread is alive.  That rule keeps each fabric
        holder at one slot: a holder starts its control-watcher thread
        before its engine (:func:`repro.inject.fabric._holder_main`),
        and the holders already spread the shards over the CPUs.  It
        does not make forking safe, since one slot forks too; any other
        caller with a live thread, a notebook kernel say, also runs its
        campaign one batch at a time.  A unit has at most one attempt
        in flight, so no more workers run than there are unfinished
        units.  ``taskset -c 0`` runs a campaign serially.
        """
        if threading.active_count() > 1:
            return 1
        return len(os.sched_getaffinity(0))

    def _schedule(self, units: Sequence[WorkUnit], state: JournalState,
                  journal: Journal, reports: List[Optional[UnitReport]],
                  slots: int) -> None:
        """Run the units' attempts in forked workers, ``slots`` at once.

        Each attempt forks its own worker with its own ``timeout_s``
        deadline; the worker sends ``(outcome, payload)`` down a pipe
        and is joined once that is read.  A unit has at most one attempt
        in flight, so its batches run in order.  When a slot frees, the
        lowest-position unit with an attempt to run gets it, and the
        next unit starts only when none has one; a retry waits out its
        backoff without a slot.  The lowest unfinished unit journals
        straight through, later units hold their records until it
        finishes (:class:`_UnitRecords`).

        A drain stops dispatching: attempts in flight get
        ``drain_deadline_s`` to finish and are then killed, and the
        rest pause.  The wait wakes at least every 50 ms, since a signal
        does not end it early (PEP 475) and a drain must still be seen.
        Every worker is killed and joined before this returns or raises.
        """
        from multiprocessing.connection import wait

        fork = multiprocessing.get_context("fork")
        budget = self._budget()
        timeout = self.config.timeout_s
        held = [_UnitRecords(journal) for _ in units]
        head = 0  # the lowest unit without a terminal report
        steps: Dict[int, Any] = {}  # position -> a started unit's steps
        ready: Dict[int, Any] = {}  # position -> (not before, attempt)
        running: Dict[Any, Any] = {}  # pipe -> (position, worker, deadline)
        started = 0
        drain_deadline: Optional[float] = None

        def answer(position: int, result) -> None:
            nonlocal head
            try:
                attempt = steps[position].send(result)
            except StopIteration as stop:
                del steps[position]
                reports[position] = stop.value
                while head < len(units) and reports[head] is not None \
                        and reports[head].status != "paused":
                    head += 1
                    if head < len(units):
                        held[head].release()
            else:
                ready[position] = (time.monotonic() + attempt.delay,
                                   attempt)

        def finish(conn, result=None) -> None:
            """Reap ``conn``'s worker, then answer its unit.

            ``result`` is the verdict on an abandoned worker (hung, or
            past the drain deadline), which is killed.  Otherwise the
            worker's own result is read and the worker joined; one that
            died without a result gets the verdict on its death.
            """
            position, worker, _ = running[conn]
            if result is None:
                try:
                    result = conn.recv()
                except (EOFError, OSError):
                    pass
                worker.join(1.0)
            _stop(worker)
            del running[conn]
            conn.close()
            if result is None:
                result = self._dead_worker_verdict(worker)
            answer(position, result)

        try:
            if held:
                held[0].release()
            while True:
                now = time.monotonic()
                if drain_deadline is None and self._draining():
                    drain_deadline = \
                        now + self.supervisor.config.drain_deadline_s
                if drain_deadline is not None:
                    for position in sorted(ready):
                        del ready[position]
                        answer(position, ("paused", "drained before the "
                                                    "batch started"))
                    if now >= drain_deadline:
                        for conn in list(running):
                            finish(conn, (
                                "paused", f"drain deadline reached with "
                                f"batch in flight (pid "
                                f"{running[conn][1].pid})"))
                while drain_deadline is None and len(running) < slots:
                    now = time.monotonic()
                    due = [position for position, (at, _) in ready.items()
                           if at <= now]
                    if due:
                        position = min(due)
                        attempt = ready.pop(position)[1]
                        conn, worker_conn = fork.Pipe(duplex=False)
                        worker = fork.Process(
                            target=_worker_entry,
                            args=(attempt.runner, attempt.unit.params,
                                  attempt.unit.context, attempt.batch,
                                  worker_conn, budget),
                            daemon=True)
                        worker.start()
                        worker_conn.close()
                        running[conn] = (position, worker, None
                                         if timeout is None else
                                         time.monotonic() + timeout)
                    elif started < len(units):
                        steps[started] = self._unit_steps(
                            units[started], state, held[started])
                        started += 1
                        answer(started - 1, None)
                    else:
                        break
                if not running and not ready and \
                        (drain_deadline is not None or
                         started == len(units)):
                    return
                for conn in wait(list(running), 0.05):
                    finish(conn)
                now = time.monotonic()
                for conn, (_, worker, deadline) in list(running.items()):
                    if deadline is not None and now >= deadline:
                        finish(conn, ("hung", f"no result within "
                                              f"{timeout:.1f}s (pid "
                                              f"{worker.pid})"))
        finally:
            for conn, (_, worker, _) in running.items():
                _stop(worker)
                conn.close()

    def _dead_worker_verdict(self, process):
        """Classify a worker that died without reporting a result."""
        exitcode = process.exitcode
        if exitcode is not None and exitcode < 0 and \
                -exitcode in (_signal.SIGXCPU, _signal.SIGKILL) and \
                self._budget() is not None and \
                self._budget().max_cpu_s is not None:
            # RLIMIT_CPU teeth: SIGXCPU at the soft limit, the kernel's
            # SIGKILL backstop at the hard limit one second later.
            return "resource_exhausted", (
                f"worker killed by {_signal.Signals(-exitcode).name} "
                f"(CPU budget {self._budget().max_cpu_s}s)")
        return "crashed", (f"worker died with exit code "
                           f"{exitcode} before reporting")


def merged_gate_results(report: CampaignReport) -> Dict[str, CampaignResult]:
    """Reassemble per-unit :class:`CampaignResult`s from gate payloads.

    Units that crashed or hung before producing any batch are omitted —
    callers see exactly the campaigns that have data, mirroring how the
    engine degrades instead of aborting.
    """
    results: Dict[str, CampaignResult] = {}
    for unit_id, unit_report in report.units.items():
        if unit_report.kind != "gate" or not unit_report.payloads:
            continue
        results[unit_id] = merge_results(
            [CampaignResult.from_dict(payload)
             for payload in unit_report.payloads])
    return results
