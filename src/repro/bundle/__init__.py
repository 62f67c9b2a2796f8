"""Deterministic failure repro bundles with replay verification.

The diagnostics endgame of the typed error hierarchy: any failure the
campaign stack can produce — an engine batch crash, a supervisor
quarantine, a fabric lease loss or merge conflict, a certifier claim
violation, a :class:`~repro.errors.ContainmentViolation` — is captured
as a single content-hashed directory (or tarball) that replays on any
machine with no external state::

    from repro.bundle import ReproBundle, capture_bundle, replay

    path = capture_bundle(error, capture_point="engine", out_dir="bundles",
                          trial={...}, seed=17)
    result = replay(path)
    assert result.verdict == "REPRODUCED"

See :mod:`repro.bundle.capture` for the bundle layout and manifest
schema, and :mod:`repro.bundle.replay` for the trial kinds and the
``REPRODUCED`` / ``DIVERGED`` / ``STALE_SCHEMA`` verdict semantics.
The ``examples/replay_bundle.py`` CLI wraps :func:`replay` for
fresh-process verification.
"""

from repro.bundle.capture import (BUNDLE_KIND, BUNDLE_SCHEMA_VERSION,
                                  FAULT_PLAN_FILE, JOURNAL_DIR,
                                  JOURNAL_SLICE_FILE, MANIFEST_NAME,
                                  SCHEME_FILE, WORKLOAD_FILE, ReproBundle,
                                  capture_bundle, certificate_outcome,
                                  error_outcome, outcome_fingerprint)
from repro.bundle.replay import (DIVERGED, REPRODUCED, STALE_SCHEMA,
                                 TRIAL_KINDS, ReplayResult, journal_digest,
                                 merge_outcome, replay)

__all__ = [
    "BUNDLE_KIND", "BUNDLE_SCHEMA_VERSION", "DIVERGED",
    "FAULT_PLAN_FILE", "JOURNAL_DIR", "JOURNAL_SLICE_FILE",
    "MANIFEST_NAME", "REPRODUCED", "ReplayResult", "ReproBundle",
    "SCHEME_FILE", "STALE_SCHEMA", "TRIAL_KINDS", "WORKLOAD_FILE",
    "capture_bundle", "certificate_outcome", "error_outcome",
    "journal_digest", "merge_outcome", "outcome_fingerprint",
    "replay",
]
