"""Exception hierarchy shared by every repro subsystem.

Every exception carries a *stable, dot-namespaced diagnostic code* (the
``code`` class attribute — ``inject.lease_expired``,
``journal.merge_conflict``, ...) plus a *severity class* and a
*recoverability flag*, so campaign journals, merged reports and
diagnostics tooling can match on failures without parsing messages.
Codes are registered at class-definition time through
:meth:`ReproError.__init_subclass__`, which enforces the contract:

* every subclass must declare its *own* ``code`` (no silent
  inheritance of the parent's identity);
* codes must be dot-namespaced lowercase identifiers
  (``<subsystem>.<failure>``);
* a duplicate code is a programming error and raises ``TypeError`` at
  import time, so the registry test can never even see one;
* every subclass must likewise declare its own ``severity`` (one of
  :data:`SEVERITIES`) and ``recoverable`` (bool) — a new failure kind
  cannot be added without deciding how operators should triage it.

The severity taxonomy:

* ``fatal`` — the run's data is unsound or a guarantee was breached;
  nothing above this layer should trust the partial results.
* ``degraded`` — the campaign continues but lost capacity (a shard,
  a quarantined unit); results remain sound.
* ``transient`` — expected under fault/chaos conditions (hangs,
  resource caps, lease expiry); retrying or re-leasing is the designed
  response.
* ``config`` — the request itself was malformed; retrying without
  changing inputs can never succeed.

Instances carry a structured ``context`` dict (workload, scheme, path,
shard, lease token, ...) validated at raise time, and round-trip
through journals and worker pipes via :meth:`ReproError.to_record` /
:meth:`ReproError.from_record` and a ``__reduce__`` that preserves the
full diagnostic payload under pickling.

:func:`error_code_registry` exposes the full ``code -> class`` map for
diagnostics tooling and the registry test.
"""

import re
from typing import Any, Dict, Mapping, Optional, Type

_CODE_PATTERN = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: the closed set of severity classes (see the module docstring for the
#: triage semantics of each)
SEVERITIES = ("fatal", "degraded", "transient", "config")

#: the context fields some raise site sets, and their required types.
#: Other keys are allowed and stay untyped (subsystems attach what they
#: know, and records journaled by older builds carry retired keys), but
#: a wrong type on one of these is a programming error caught at raise
#: time.
CONTEXT_FIELD_TYPES: Dict[str, type] = {
    "workload": str,   # workload id
    "scheme": str,     # protection-scheme name
    "path": str,       # filesystem path involved
    "shard": str,      # fabric shard id
    "token": int,      # lease fencing token
}

_SCALAR_TYPES = (str, int, float, bool, type(None))
_MAX_CONTEXT_DEPTH = 4

#: the process-wide code -> exception-class map (see
#: :func:`error_code_registry` for the public, copied view)
_REGISTRY: Dict[str, Type["ReproError"]] = {}


def error_code_registry() -> Dict[str, Type["ReproError"]]:
    """A copy of the diagnostic-code registry (``code -> class``)."""
    return dict(_REGISTRY)


def _checked_context_value(key: str, value: Any, depth: int) -> Any:
    """Validate one context value; return its JSON-normal form.

    Tuples come back as lists and dicts as fresh copies, so a stored
    context is exactly what a journal round-trip reproduces.
    """
    if isinstance(value, bool):
        expected = CONTEXT_FIELD_TYPES.get(key)
        if expected is not None and expected is not bool:
            raise TypeError(
                f"context field {key!r} must be {expected.__name__}, "
                f"got bool")
        return value
    if isinstance(value, _SCALAR_TYPES):
        expected = CONTEXT_FIELD_TYPES.get(key)
        if (expected is not None and value is not None
                and not isinstance(value, expected)):
            raise TypeError(
                f"context field {key!r} must be {expected.__name__}, "
                f"got {type(value).__name__}")
        return value
    if depth >= _MAX_CONTEXT_DEPTH:
        raise TypeError(
            f"context field {key!r} nests deeper than "
            f"{_MAX_CONTEXT_DEPTH} levels")
    if isinstance(value, (list, tuple)):
        return [_checked_context_value(key, item, depth + 1)
                for item in value]
    if isinstance(value, dict):
        normalized = {}
        for sub_key, sub_value in value.items():
            if not isinstance(sub_key, str):
                raise TypeError(
                    f"context field {key!r} has a non-string key "
                    f"{sub_key!r}")
            normalized[sub_key] = _checked_context_value(
                f"{key}.{sub_key}", sub_value, depth + 1)
        return normalized
    raise TypeError(
        f"context field {key!r} has non-JSON value of type "
        f"{type(value).__name__}")


def _validated_context(
        context: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Validate a context mapping, returning a plain-dict copy.

    Keys must be strings; well-known keys (:data:`CONTEXT_FIELD_TYPES`)
    must carry their declared type; all values must be JSON-compatible
    (scalars, or lists/dicts of scalars nested at most
    ``_MAX_CONTEXT_DEPTH`` deep) so every context survives the journal
    round-trip byte-identically.
    """
    if context is None:
        return {}
    if not isinstance(context, Mapping):
        raise TypeError(
            f"context must be a mapping, got {type(context).__name__}")
    validated: Dict[str, Any] = {}
    for key, value in context.items():
        if not isinstance(key, str) or not key:
            raise TypeError(f"context keys must be non-empty strings, "
                            f"got {key!r}")
        validated[key] = _checked_context_value(key, value, 0)
    return validated


def _rebuild_error(klass: type, args: tuple) -> "ReproError":
    """Pickle reconstructor: rebuild without calling subclass __init__.

    Subclasses are free to take extra constructor arguments; going
    through ``Exception.__init__`` directly means every registered
    class round-trips through worker pipes regardless of its
    constructor signature (the instance ``__dict__`` — including
    ``context`` — is restored by pickle's state step).
    """
    exc = klass.__new__(klass)
    Exception.__init__(exc, *args)
    exc.context = {}
    return exc


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    #: stable dot-namespaced diagnostic code; every subclass declares
    #: its own (enforced by ``__init_subclass__``)
    code = "repro.error"

    #: severity class (one of :data:`SEVERITIES`); every subclass
    #: declares its own (enforced by ``__init_subclass__``)
    severity = "fatal"

    #: whether the designed response is to retry/re-lease (True) or to
    #: stop trusting the run (False); every subclass declares its own
    recoverable = False

    def __init__(self, *args, context: Optional[Mapping[str, Any]] = None):
        super().__init__(*args)
        self.context = _validated_context(context)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__dict__.get("code")
        if code is None:
            raise TypeError(
                f"{cls.__name__} must declare its own 'code' class "
                f"attribute (inheriting {cls.__mro__[1].__name__}'s "
                f"would alias two failure kinds under one code)")
        if not isinstance(code, str) or not _CODE_PATTERN.match(code):
            raise TypeError(
                f"{cls.__name__}.code {code!r} is not a dot-namespaced "
                f"lowercase identifier (expected '<subsystem>.<failure>')")
        if code in _REGISTRY:
            raise TypeError(
                f"{cls.__name__}.code {code!r} duplicates "
                f"{_REGISTRY[code].__name__}; diagnostic codes must be "
                f"unique")
        severity = cls.__dict__.get("severity")
        if severity is None:
            raise TypeError(
                f"{cls.__name__} must declare its own 'severity' class "
                f"attribute (one of {SEVERITIES}) — every failure kind "
                f"decides its triage class explicitly")
        if severity not in SEVERITIES:
            raise TypeError(
                f"{cls.__name__}.severity {severity!r} is not one of "
                f"{SEVERITIES}")
        recoverable = cls.__dict__.get("recoverable")
        if not isinstance(recoverable, bool):
            raise TypeError(
                f"{cls.__name__} must declare its own 'recoverable' "
                f"class attribute as a bool (got {recoverable!r})")
        _REGISTRY[code] = cls

    def __reduce__(self):
        # Default Exception pickling calls ``cls(*self.args)``, which
        # breaks subclasses with extra constructor arguments and drops
        # ``context``.  Rebuild through ``Exception.__init__`` and let
        # the state step restore the full instance ``__dict__``.
        return (_rebuild_error, (type(self), self.args), dict(self.__dict__))

    def to_record(self) -> Dict[str, Any]:
        """The JSON-safe journal form of this error."""
        return {
            "code": self.code,
            "severity": self.severity,
            "recoverable": self.recoverable,
            "message": str(self),
            "context": dict(getattr(self, "context", {}) or {}),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ReproError":
        """Reconstruct an error instance from :meth:`to_record` output.

        The class is looked up by ``code`` in the registry, so the
        reconstructed instance satisfies the same ``isinstance`` checks
        as the original.  A code this build does not know (a record
        from a newer engine) falls back to :class:`ReproError` with the
        recorded code preserved as an instance attribute, keeping the
        diagnostic identity intact through ``to_record`` round-trips.
        """
        code = record.get("code")
        klass = _REGISTRY.get(code, ReproError)
        exc = klass.__new__(klass)
        Exception.__init__(exc, record.get("message", ""))
        exc.context = _validated_context(record.get("context"))
        if klass is ReproError and isinstance(code, str) \
                and code != ReproError.code:
            exc.code = code
        return exc


_REGISTRY[ReproError.code] = ReproError


class InvalidArgument(ReproError, ValueError):
    """A library call received an argument outside its domain.

    The typed form of argument validation (negative widths, empty
    layouts, schemes missing a required bit class).  Subclasses
    :class:`ValueError` so callers using idiomatic ``except ValueError``
    keep working, while journals see a registered code instead of an
    anonymous builtin.
    """

    code = "repro.invalid_argument"
    severity = "config"
    recoverable = False


class CodeConstructionError(ReproError):
    """An error-correcting code could not be constructed as requested."""

    code = "ecc.construction"
    severity = "config"
    recoverable = False


class DecodingError(ReproError):
    """An ECC word could not be decoded (inconsistent inputs, bad widths)."""

    code = "ecc.decoding"
    severity = "config"
    recoverable = False


class NetlistError(ReproError):
    """A gate netlist was malformed (cycles, missing drivers, bad widths)."""

    code = "gates.netlist"
    severity = "config"
    recoverable = False


class InjectionError(ReproError):
    """A fault-injection campaign was misconfigured."""

    code = "inject.misconfigured"
    severity = "config"
    recoverable = False


class AssemblyError(ReproError):
    """A GPU kernel program failed to assemble."""

    code = "gpu.assembly"
    severity = "config"
    recoverable = False


class SimulationError(ReproError):
    """The GPU simulator reached an invalid state (bad address, deadlock)."""

    code = "gpu.simulation"
    severity = "fatal"
    recoverable = False


class FaultModelError(SimulationError):
    """A fault-injection strike was malformed.

    Raised at :class:`~repro.gpu.resilience.FaultPlan` construction (and
    by the strike helpers in :mod:`repro.ecc.swap`) for bit indices
    outside the codeword, empty strike masks, non-positive burst widths,
    or out-of-range lane sets — instead of silently wrapping indices
    modulo the width or failing later with an ``IndexError``.  Subclasses
    :class:`SimulationError` so existing crash-isolation boundaries keep
    treating a malformed plan as a configuration failure.
    """

    code = "gpu.fault_model"
    severity = "config"
    recoverable = False


class CertificationError(ReproError):
    """The guarantee certifier was misconfigured or could not run.

    Distinct from a *violated claim* — a violation is a legitimate
    certifier verdict recorded in the certificate artifact, while this
    exception means the certification request itself was malformed
    (unknown scheme, empty strike space, unwritable artifact path).
    """

    code = "certify.misconfigured"
    severity = "config"
    recoverable = False


class HangError(SimulationError):
    """A watchdog verdict: the kernel livelocked (budget or deadline hit).

    Subclasses :class:`SimulationError` so existing crash-isolation code
    keeps working, while classifiers can bin step-limit and wall-clock
    exhaustion as ``hang`` instead of a generic crash.
    """

    code = "gpu.hang"
    severity = "transient"
    recoverable = True


class ResourceExhausted(ReproError):
    """A campaign worker blew through its supervised resource budget.

    Raised inside worker subprocesses when a ``resource.setrlimit`` cap
    trips (the SIGXCPU handler raises it for CPU budgets; address-space
    caps surface as :class:`MemoryError`, which the worker boundary folds
    into the same ``resource_exhausted`` outcome).  Lives in the shared
    error module so the engine's worker entry can catch it without
    importing the supervisor layer.
    """

    code = "inject.resource_exhausted"
    severity = "transient"
    recoverable = True


class CompilationError(ReproError):
    """A resilience compiler pass could not transform a kernel."""

    code = "compiler.transform"
    severity = "config"
    recoverable = False


class WorkloadError(ReproError):
    """A workload failed to build inputs or verify outputs."""

    code = "workloads.invalid"
    severity = "config"
    recoverable = False


class FabricError(InjectionError):
    """The distributed campaign fabric was misconfigured or lost a shard.

    The umbrella code for coordinator-level failures (bad shard plans,
    a shard that exhausted its lease attempts, a resume against a
    mismatched plan); the lease-protocol violations below subclass it
    with their own codes.
    """

    code = "inject.fabric"
    severity = "degraded"
    recoverable = False


class LeaseExpired(FabricError):
    """A shard lease ended (its holder exited or drained) before completion.

    Raised when a completion arrives for a lease the coordinator already
    expired — its work will be (or already was) re-leased to a new
    holder under a higher fencing token.  The old holder's journal
    remains on disk and merges idempotently, so the expiry can never
    lose or double-count trials.
    """

    code = "inject.lease_expired"
    severity = "transient"
    recoverable = True


class StaleFencingToken(FabricError):
    """A lease operation carried a superseded fencing token.

    The fencing rule: every grant of a shard increments its token, and
    completions are only honored when they carry the *current* token.
    A superseded holder can therefore never complete over its
    replacement, which is what makes duplicated execution harmless (the
    merge layer dedupes the journals; the lease layer guarantees only
    one holder's completion is ever *accepted*).
    """

    code = "inject.stale_fencing_token"
    severity = "transient"
    recoverable = True


class MergeConflict(InjectionError):
    """Two shard journals made contradictory claims about the same work.

    Deterministic merge relies on batch records being pure functions of
    ``(unit params, batch index)``: duplicated execution after work
    stealing must reproduce byte-identical records.  If two journals
    disagree about the same ``(unit, batch)`` — different counts, or the
    same unit id launched with different params — the campaign data is
    unsound and the merge refuses to pick a winner.
    """

    code = "journal.merge_conflict"
    severity = "fatal"
    recoverable = False


class FabricConfigError(FabricError):
    """A fabric configuration or campaign the fabric cannot run.

    The typed form of fabric misconfiguration: a non-positive shard
    count or lease-attempt limit, or a work unit that carries a
    context.
    ``config`` because retrying without changing the configuration can
    never succeed — distinct from :class:`FabricError`'s ``degraded``
    runtime failures.
    """

    code = "inject.fabric_config"
    severity = "config"
    recoverable = False
