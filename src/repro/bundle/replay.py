"""Replay engine: re-trigger a bundled failure and verify it bit-identically.

:func:`replay` reconstructs the exact trial a :class:`ReproBundle`
froze — from the bundle contents alone, no live campaign state — runs
it, and compares the resulting outcome fingerprint against the one the
capture recorded:

* ``REPRODUCED`` — the failure re-triggered with the identical error
  code and outcome fingerprint (and, where the trial carries a fault
  plan, the scalar and tensor execution paths agreed bit for bit);
* ``DIVERGED`` — the trial ran but produced a different outcome: the
  bug is timing/environment-dependent, was fixed, or the two executor
  paths disagree;
* ``STALE_SCHEMA`` — the bundle was written under a different bundle,
  journal, or certificate schema version (or names a trial kind this
  engine does not know) and cannot be interpreted; nothing ran.

Trial kinds:

``unit-batch``
    Re-run a registered work-unit batch runner inline with the recorded
    params and batch spec, expecting the recorded failure to raise.
``ladder``
    Re-run a single recovery-ladder trial (workload + compile scheme or
    tampered pass + exact :class:`~repro.gpu.resilience.FaultPlan`),
    expecting the recorded :class:`~repro.errors.ContainmentViolation`.
``certify``
    Re-certify the recorded scheme (registry name or tamper spec) under
    the recorded mode/seed, expecting the identical violated claims and
    counterexamples.
``merge``
    Re-merge the bundled shard journals, expecting the recorded
    :class:`~repro.errors.MergeConflict`.
``journal-verify``
    Re-scan the bundled lease journals and match the recorded durable
    state digest — the deterministic residue of a timing-dependent
    fabric failure (lease loss, SIGKILL mid-lease).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bundle.capture import (BUNDLE_SCHEMA_VERSION, FAULT_PLAN_FILE,
                                  ReproBundle, error_outcome,
                                  outcome_fingerprint)
from repro.errors import (BundleError, ContainmentViolation, HangError,
                          MergeConflict, ReproError, SimulationError)

REPRODUCED = "REPRODUCED"
DIVERGED = "DIVERGED"
STALE_SCHEMA = "STALE_SCHEMA"

#: trial kinds this engine knows how to reconstruct
TRIAL_KINDS = ("unit-batch", "ladder", "certify", "merge",
               "journal-verify")


@dataclass
class ReplayResult:
    """The verdict of replaying one bundle."""

    verdict: str
    bundle_path: str = ""
    expected_code: Optional[str] = None
    actual_code: Optional[str] = None
    expected_fingerprint: Optional[str] = None
    actual_fingerprint: Optional[str] = None
    #: scalar-vs-tensor executor agreement: "ok", "diverged: ...", or
    #: "skipped (...)" when the trial has no fault plan to cross-check
    cross_check: str = "skipped (no fault plan)"
    detail: str = ""
    outcome: Optional[Dict[str, Any]] = field(default=None, repr=False)

    @property
    def reproduced(self) -> bool:
        return self.verdict == REPRODUCED

    def to_dict(self) -> Dict[str, Any]:
        return {"verdict": self.verdict, "bundle": self.bundle_path,
                "expected_code": self.expected_code,
                "actual_code": self.actual_code,
                "expected_fingerprint": self.expected_fingerprint,
                "actual_fingerprint": self.actual_fingerprint,
                "cross_check": self.cross_check, "detail": self.detail}


class _Stale(Exception):
    """Internal: the bundle's schema cannot be interpreted."""


def journal_digest(paths: List[str]) -> Dict[str, Any]:
    """The deterministic durable-state digest of a set of journals.

    Keyed by basename (never absolute paths), built from salvage-mode
    replays, so the digest of a journal set is identical on every
    machine that holds byte-identical files — the fingerprint base for
    ``journal-verify`` trials.
    """
    from repro.inject.journal import JournalState

    digest: Dict[str, Any] = {}
    for path in sorted(paths, key=os.path.basename):
        state = JournalState.load(path, salvage=True)
        header = None
        if state.header:
            header = {name: state.header.get(name)
                      for name in ("shard", "token", "shard_count")
                      if name in state.header}
        digest[os.path.basename(path)] = {
            "header": header,
            "started": sorted(state.started),
            "finished": sorted(state.finished),
            "quarantined": sorted(state.quarantined),
            "batches": {unit: len(records)
                        for unit, records in sorted(state.batches.items())},
            "pauses": len(state.pauses),
            "corrupt_lines": state.corrupt_lines,
        }
    return digest


def merge_outcome(error: Any) -> Dict[str, Any]:
    """The portable outcome for a merge conflict.

    Merge-conflict messages name journal *paths*, which differ between
    the capturing and replaying machines, so the merge trial matches on
    the diagnostic code alone.
    """
    code = error.code if isinstance(error, ReproError) else None
    if isinstance(error, dict):
        code = error.get("code")
    return {"code": code, "message": None, "context": {}}


def replay(path: str) -> ReplayResult:
    """Reconstruct and re-run the trial frozen in the bundle at ``path``.

    Loads (and hash-verifies) the bundle, dispatches on its trial kind,
    and compares the fresh outcome fingerprint against the recorded
    one.  Raises :class:`~repro.errors.BundleError` for bundles that are
    corrupt or carry no trial spec at all; schema mismatches are the
    ``STALE_SCHEMA`` verdict, not an error.
    """
    bundle = ReproBundle.load(path)
    manifest = bundle.manifest
    expected_code = bundle.code
    expected_fingerprint = bundle.fingerprint
    result = ReplayResult(verdict=DIVERGED, bundle_path=path,
                          expected_code=expected_code,
                          expected_fingerprint=expected_fingerprint)

    if bundle.schema_version != BUNDLE_SCHEMA_VERSION:
        result.verdict = STALE_SCHEMA
        result.detail = (f"bundle schema {bundle.schema_version!r} != "
                         f"engine schema {BUNDLE_SCHEMA_VERSION}")
        return result
    trial = bundle.trial
    if trial is None:
        raise BundleError(
            f"bundle {path} is forensic-only (no trial spec); it cannot "
            f"be replayed")
    kind = trial.get("kind")
    if kind not in TRIAL_KINDS:
        result.verdict = STALE_SCHEMA
        result.detail = (f"unknown trial kind {kind!r} (bundle written "
                         f"by a newer engine?)")
        return result

    try:
        if kind == "unit-batch":
            outcome, cross = _replay_unit_batch(bundle, trial)
        elif kind == "ladder":
            outcome, cross = _replay_ladder(bundle, trial)
        elif kind == "certify":
            outcome, cross = _replay_certify(bundle, trial)
        elif kind == "merge":
            outcome, cross = _replay_merge(bundle, trial, manifest)
        else:
            outcome, cross = _replay_journal_verify(bundle, trial,
                                                    manifest)
    except _Stale as stale:
        result.verdict = STALE_SCHEMA
        result.detail = str(stale)
        return result

    result.outcome = outcome
    result.actual_code = outcome.get("code")
    result.actual_fingerprint = outcome_fingerprint(outcome)
    result.cross_check = cross
    if cross.startswith("diverged"):
        result.verdict = DIVERGED
        result.detail = f"executor cross-check failed: {cross}"
    elif result.actual_fingerprint != expected_fingerprint:
        result.verdict = DIVERGED
        result.detail = (f"outcome fingerprint mismatch (expected "
                         f"{expected_fingerprint}, got "
                         f"{result.actual_fingerprint})")
    elif result.actual_code != expected_code:
        result.verdict = DIVERGED
        result.detail = (f"error code mismatch (expected "
                         f"{expected_code!r}, got "
                         f"{result.actual_code!r})")
    else:
        result.verdict = REPRODUCED
        result.detail = "outcome fingerprint and error code match"
    return result


def _replay_unit_batch(bundle: ReproBundle,
                       trial: Dict[str, Any]) -> Tuple[Dict[str, Any], str]:
    from repro.inject.engine import BatchSpec, unit_runner

    runner = unit_runner(trial["unit_kind"])
    spec = trial.get("batch") or {}
    batch = BatchSpec(index=spec.get("index", 0),
                      size=spec.get("size", 1),
                      seed=spec.get("seed", 0))
    params = dict(trial.get("params") or {})
    try:
        runner(params, None, batch)
        outcome = {"code": None, "message": "<batch completed>",
                   "context": {}}
    except BaseException as exc:  # the failure is the expected result
        outcome = error_outcome(exc)
    return outcome, _maybe_cross_check(bundle, trial)


def _replay_ladder(bundle: ReproBundle,
                   trial: Dict[str, Any]) -> Tuple[Dict[str, Any], str]:
    from repro.gpu.recovery import (ContainmentAuditor, LadderConfig,
                                    run_with_ladder)
    from repro.gpu.resilience import ResilienceState
    from repro.gpu.watchdog import WatchdogConfig

    plan, kernel, launch, instance, mode, scheme_code = \
        _build_trial_environment(bundle, trial)
    ladder_spec = trial.get("ladder") or {}
    ladder = LadderConfig(
        max_cta_replays=ladder_spec.get("max_cta_replays", 1),
        max_kernel_replays=ladder_spec.get("max_kernel_replays", 2),
        watchdog=WatchdogConfig(
            max_steps=ladder_spec.get("max_steps", 2_000_000),
            max_warp_steps=ladder_spec.get("max_warp_steps")))
    persistent = trial.get("persistent", False)
    armed = [plan] if not persistent else None

    def make_state() -> ResilienceState:
        fault = plan if persistent else (armed.pop() if armed else None)
        return ResilienceState(mode=mode,
                               scheme=_make_scheme(scheme_code)
                               if mode == "swap" else None,
                               fault=fault)

    auditor = ContainmentAuditor(kernel, launch)
    try:
        run_with_ladder(kernel, launch, instance.memory, make_state,
                        config=ladder, auditor=auditor)
        outcome = {"code": None, "message": "<no violation>",
                   "context": {}}
    except BaseException as exc:
        outcome = error_outcome(exc)
        overlay = trial.get("context")
        if overlay and outcome.get("code"):
            # the capture hook enriched the violation's context with the
            # trial inputs (plan, seed, batch/trial index); apply the
            # recorded overlay so fingerprints compare like for like
            merged = dict(outcome.get("context") or {})
            merged.update(overlay)
            outcome["context"] = merged
    return outcome, _cross_check(kernel, launch, instance, mode,
                                 scheme_code, plan,
                                 ladder_spec.get("max_steps", 2_000_000))


def _replay_certify(bundle: ReproBundle,
                    trial: Dict[str, Any]) -> Tuple[Dict[str, Any], str]:
    from repro.bundle.capture import certificate_outcome
    from repro.certify import CERTIFICATE_SCHEMA_VERSION, Certifier
    from repro.certify.engine import certify_scheme

    recorded_schema = trial.get("certificate_schema")
    if recorded_schema is not None and \
            recorded_schema != CERTIFICATE_SCHEMA_VERSION:
        raise _Stale(f"certificate schema {recorded_schema!r} != engine "
                     f"schema {CERTIFICATE_SCHEMA_VERSION}")
    mode = trial.get("mode", "fast")
    seed = trial.get("seed", 0)
    tamper = trial.get("tamper")
    if tamper is not None:
        from repro.certify.tamper import build_tampered_scheme
        scheme = build_tampered_scheme(tamper)
        certificate = Certifier(mode=mode, seed=seed).certify(
            scheme, name=trial.get("scheme"))
    else:
        certificate = certify_scheme(trial["scheme"], mode=mode,
                                     seed=seed)
    return certificate_outcome(certificate.to_dict()), \
        "skipped (certification trial)"


def _replay_merge(bundle: ReproBundle, trial: Dict[str, Any],
                  manifest: Dict[str, Any]) -> Tuple[Dict[str, Any], str]:
    from repro.inject.journal import JOURNAL_VERSION
    from repro.inject.merge import merge_shard_journals

    if manifest.get("journal_version") != JOURNAL_VERSION:
        raise _Stale(f"journal schema "
                     f"{manifest.get('journal_version')!r} != engine "
                     f"schema {JOURNAL_VERSION}")
    paths = bundle.journal_files()
    if not paths:
        raise BundleError("merge trial bundles no journals")
    try:
        merge_shard_journals(paths)
        outcome = {"code": None, "message": None, "context": {}}
    except MergeConflict as exc:
        outcome = merge_outcome(exc)
    return outcome, "skipped (journal trial)"


def _replay_journal_verify(bundle: ReproBundle, trial: Dict[str, Any],
                           manifest: Dict[str, Any],
                           ) -> Tuple[Dict[str, Any], str]:
    from repro.inject.journal import JOURNAL_VERSION

    if manifest.get("journal_version") != JOURNAL_VERSION:
        raise _Stale(f"journal schema "
                     f"{manifest.get('journal_version')!r} != engine "
                     f"schema {JOURNAL_VERSION}")
    paths = bundle.journal_files()
    if not paths:
        raise BundleError("journal-verify trial bundles no journals")
    outcome = {"code": (manifest.get("error") or {}).get("code"),
               "journals": journal_digest(paths)}
    return outcome, "skipped (journal trial)"


def _make_scheme(code: str):
    from repro.inject.engine import make_scheme
    return make_scheme(code)


def _build_trial_environment(bundle: ReproBundle, trial: Dict[str, Any]):
    """Workload + compiled kernel + plan for a fault-plan trial spec."""
    from repro.compiler import compile_for_scheme, resilience_mode
    from repro.gpu.resilience import FaultPlan
    from repro.workloads import get_workload

    plan = FaultPlan.from_dict(bundle.read_json(FAULT_PLAN_FILE))
    instance = get_workload(trial["workload"]).build(
        scale=trial.get("scale", 0.25),
        seed=trial.get("build_seed", 1))
    tamper = trial.get("tamper")
    if tamper is not None:
        from repro.compiler.tamper import compile_tampered
        compiled = compile_tampered(instance.kernel, tamper)
        mode = trial.get("mode", "swdup")
    else:
        scheme = trial.get("compile_scheme", "swap-ecc")
        compiled = compile_for_scheme(instance.kernel, instance.launch,
                                      scheme)
        mode = trial.get("mode", resilience_mode(scheme))
    launch = compiled.adjust_launch(instance.launch)
    return (plan, compiled.kernel, launch, instance, mode,
            trial.get("code", "secded-dp"))


def _maybe_cross_check(bundle: ReproBundle, trial: Dict[str, Any]) -> str:
    """Cross-check the recorded fault plan when the trial carries one."""
    spec = trial.get("cross_check")
    if not spec or FAULT_PLAN_FILE not in (bundle.manifest.get("files")
                                           or {}):
        return "skipped (no fault plan)"
    plan, kernel, launch, instance, mode, scheme_code = \
        _build_trial_environment(bundle, dict(spec))
    return _cross_check(kernel, launch, instance, mode, scheme_code,
                        plan, spec.get("max_steps", 2_000_000))


def _memory_digest(words: Any) -> str:
    import numpy as np
    return hashlib.sha256(
        np.ascontiguousarray(words).tobytes()).hexdigest()


def _cross_check(kernel, launch, instance, mode, scheme_code, plan,
                 max_steps) -> str:
    """Run one plan through both executors; compare bit for bit.

    The tensor executor's exactness contract says every non-fallback
    trial matches its scalar oracle on outcome bin, detection events,
    and memory image — a bundle replay is exactly the place to hold it
    to that, so a cross-path divergence downgrades the verdict to
    ``DIVERGED`` even when the scalar outcome alone reproduced.
    """
    from repro.gpu.device import run_functional
    from repro.gpu.resilience import ResilienceState
    from repro.gpu.tensor import run_trials

    def fresh_state() -> ResilienceState:
        return ResilienceState(mode=mode,
                               scheme=_make_scheme(scheme_code)
                               if mode == "swap" else None,
                               fault=plan)

    scalar_state = fresh_state()
    scalar_memory = instance.fresh_memory()
    scalar_bin = "ok"
    try:
        run_functional(kernel, launch, scalar_memory, scalar_state,
                       max_steps=max_steps)
    except HangError:
        scalar_bin = "hang"
    except SimulationError:
        scalar_bin = "crash"
    if scalar_bin == "ok" and scalar_state.detected:
        scalar_bin = "halt"
    scalar_sig = {
        "outcome": scalar_bin,
        "detected": scalar_state.detected,
        "events": [event.kind for event in scalar_state.events],
        "fault_fired": scalar_state.fault_fired,
        "memory": _memory_digest(scalar_memory.words),
    }

    result = run_trials(kernel, launch, instance.memory.words,
                        [fresh_state()], max_steps=max_steps)
    tensor_bin = result.outcomes[0]
    if tensor_bin == "fallback":
        return f"skipped (tensor fallback: {result.fallback_reasons[0]})"
    tensor_state = result.states[0]
    tensor_sig = {
        "outcome": tensor_bin,
        "detected": tensor_state.detected,
        "events": [event.kind for event in tensor_state.events],
        "fault_fired": tensor_state.fault_fired,
        "memory": _memory_digest(result.memory.space_of(0).words),
    }
    if scalar_sig != tensor_sig:
        mismatched = sorted(name for name in scalar_sig
                            if scalar_sig[name] != tensor_sig[name])
        return (f"diverged: scalar and tensor paths disagree on "
                f"{mismatched} (scalar {scalar_sig}, tensor "
                f"{tensor_sig})")
    return "ok"
