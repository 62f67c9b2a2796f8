"""Tests for the typed diagnostic registry: stable, unique, enforced."""

import ast
import os
import pickle
import re

import pytest

from repro.errors import (CONTEXT_FIELD_TYPES, SEVERITIES, FabricError,
                          InjectionError, LeaseExpired, MergeConflict,
                          ReproError, StaleFencingToken,
                          error_code_registry)

#: dot-namespaced: at least two lowercase segments
CODE_SHAPE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


class TestRegistry:
    def test_every_code_is_dot_namespaced(self):
        for code in error_code_registry():
            assert CODE_SHAPE.match(code), code

    def test_no_duplicate_codes(self):
        registry = error_code_registry()
        classes = list(registry.values())
        assert len({cls.code for cls in classes}) == len(classes)

    def test_registry_covers_fabric_diagnostics(self):
        registry = error_code_registry()
        assert registry["inject.lease_expired"] is LeaseExpired
        assert registry["inject.stale_fencing_token"] is StaleFencingToken
        assert registry["journal.merge_conflict"] is MergeConflict
        assert registry["inject.fabric"] is FabricError

    def test_instances_carry_their_code(self):
        assert StaleFencingToken("zombie").code == \
            "inject.stale_fencing_token"
        assert LeaseExpired("late").code == "inject.lease_expired"
        assert MergeConflict("fork").code == "journal.merge_conflict"

    def test_fabric_errors_are_injection_errors(self):
        # callers catching the subsystem error must see fabric failures
        assert issubclass(FabricError, InjectionError)
        assert issubclass(LeaseExpired, FabricError)
        assert issubclass(StaleFencingToken, FabricError)
        assert issubclass(MergeConflict, InjectionError)

    def test_registry_returns_a_copy(self):
        registry = error_code_registry()
        registry["bogus.code"] = RuntimeError
        assert "bogus.code" not in error_code_registry()


class TestEnforcement:
    def test_subclass_without_code_is_rejected(self):
        with pytest.raises(TypeError, match="must declare"):
            type("Anon", (ReproError,), {})

    def test_duplicate_code_is_rejected(self):
        with pytest.raises(TypeError, match="duplicate"):
            type("Imposter", (ReproError,),
                 {"code": "inject.lease_expired"})

    def test_malformed_code_is_rejected(self):
        for bad in ("flat", "Upper.case", "trailing.", ".leading",
                    "spa ce.code"):
            with pytest.raises(TypeError, match="dot-namespaced"):
                type("Bad", (ReproError,), {"code": bad})

    def test_subclass_without_severity_is_rejected(self):
        with pytest.raises(TypeError, match="severity"):
            type("NoSev", (ReproError,), {"code": "test.no_severity"})

    def test_bad_severity_is_rejected(self):
        with pytest.raises(TypeError, match="is not one of"):
            type("BadSev", (ReproError,),
                 {"code": "test.bad_severity", "severity": "apocalyptic",
                  "recoverable": False})

    def test_subclass_without_recoverable_is_rejected(self):
        with pytest.raises(TypeError, match="recoverable"):
            type("NoRec", (ReproError,),
                 {"code": "test.no_recoverable", "severity": "fatal"})


class TestSeverityContract:
    def test_every_registered_class_declares_severity(self):
        # __init_subclass__ enforces this going forward; this pins the
        # current registry so a refactor cannot regress it.
        for code, klass in error_code_registry().items():
            assert klass.__dict__.get("severity") in SEVERITIES or \
                klass is ReproError, code
            assert isinstance(klass.__dict__.get("recoverable"),
                              bool) or klass is ReproError, code

    def test_fatal_errors_are_not_recoverable(self):
        # "fatal" means stop trusting the run: a recoverable fatal
        # error is a triage contradiction.
        for code, klass in error_code_registry().items():
            if klass.severity == "fatal":
                assert not klass.recoverable, code

    def test_transient_errors_are_recoverable(self):
        for code, klass in error_code_registry().items():
            if klass.severity == "transient":
                assert klass.recoverable, code


def _instance_of(klass):
    """Build an instance of any registry class, constructor-agnostic."""
    return ReproError.from_record({
        "code": klass.code, "message": "boom",
        "context": {"unit": "u7", "token": 3,
                    "plan": {"bit": 4, "lanes": [0, 1]}}})


class TestPickleFidelity:
    def test_every_registry_class_round_trips(self):
        for code, klass in error_code_registry().items():
            original = _instance_of(klass)
            clone = pickle.loads(pickle.dumps(original))
            assert type(clone) is type(original), code
            assert clone.code == code
            assert str(clone) == str(original)
            assert clone.context == original.context
            assert clone.severity == original.severity
            assert clone.recoverable == original.recoverable

    def test_pickle_preserves_constructor_free_subclasses(self):
        # __reduce__ must not call subclass __init__ (subclasses may
        # grow extra constructor args); it rebuilds via Exception.
        error = MergeConflict("fork", context={"path": "/tmp/x"})
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, MergeConflict)
        assert clone.context == {"path": "/tmp/x"}


class TestRecordRoundTrip:
    def test_every_registry_class_round_trips(self):
        for code, klass in error_code_registry().items():
            original = _instance_of(klass)
            record = original.to_record()
            assert record["code"] == code
            assert record["severity"] in SEVERITIES
            assert isinstance(record["recoverable"], bool)
            clone = ReproError.from_record(record)
            assert type(clone) is klass, code
            assert clone.to_record() == record, code

    @pytest.mark.parametrize("field,value", sorted(
        {"shard": "s0", "token": 9, "scheme": "secded-dp",
         "workload": "saxpy", "path": "/var/journal"}.items()))
    def test_typed_fields_round_trip(self, field, value):
        assert isinstance(value, CONTEXT_FIELD_TYPES[field])
        error = ReproError("x", context={field: value})
        assert ReproError.from_record(error.to_record()).context \
            == {field: value}

    @pytest.mark.parametrize("field,value", sorted(
        {"cta": 1, "address": 640, "unit": "alu", "seed": 123, "batch": 2,
         "trial": 17, "rix": 40, "kind": "gpu",
         "claim": "pipeline-detect"}.items()))
    def test_retired_fields_load_untyped(self, field, value):
        # Failure records journaled by older engines carry context keys
        # the table no longer types; they must still load and round-trip.
        assert field not in CONTEXT_FIELD_TYPES
        record = {"code": "gpu.containment_violation", "severity": "fatal",
                  "recoverable": False, "message": "leaked",
                  "context": {field: value, "token": 3}}
        clone = ReproError.from_record(record)
        assert clone.context == {field: value, "token": 3}
        assert clone.to_record() == record
        assert ReproError("x", context={field: "any"}).context == \
            {field: "any"}

    def test_typed_fields_accept_none(self):
        for field in CONTEXT_FIELD_TYPES:
            error = ReproError("x", context={field: None})
            assert error.context == {field: None}

    def test_typed_fields_reject_wrong_types(self):
        with pytest.raises(TypeError, match="must be int"):
            ReproError("x", context={"token": "seven"})
        with pytest.raises(TypeError, match="must be str"):
            ReproError("x", context={"workload": 7})
        with pytest.raises(TypeError, match="got bool"):
            ReproError("x", context={"token": True})

    def test_nested_context_normalizes_tuples(self):
        error = ReproError("x", context={"plan": {"lanes": (0, 1, 2)}})
        assert error.context == {"plan": {"lanes": [0, 1, 2]}}
        record = error.to_record()
        assert ReproError.from_record(record).to_record() == record

    def test_context_depth_is_bounded(self):
        nested = {"a": {"b": {"c": {"d": {"e": 1}}}}}
        with pytest.raises(TypeError, match="nests deeper"):
            ReproError("x", context={"plan": nested})

    def test_non_json_context_rejected(self):
        with pytest.raises(TypeError, match="non-JSON"):
            ReproError("x", context={"plan": object()})

    def test_unknown_code_survives_round_trip(self):
        # A record from a newer engine: class falls back to ReproError
        # but the diagnostic identity is preserved.
        record = {"code": "future.unseen", "severity": "fatal",
                  "recoverable": False, "message": "novel",
                  "context": {}}
        clone = ReproError.from_record(record)
        assert type(clone) is ReproError
        assert clone.code == "future.unseen"
        assert ReproError.from_record(clone.to_record()).code == \
            "future.unseen"


SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "repro")

#: exception classes legitimately raised without a registry code:
#: builtin contract errors (TypeError at class-definition time in
#: errors.py), internal control-flow signals that never escape their
#: module, and SystemExit in CLIs.
_UNREGISTERED_ALLOWED = {
    "TypeError",           # registry/context contract enforcement
    "KernelHalt",          # warp-level control flow, caught by simulator
    "_Stale",              # replay-internal schema signal
    "SystemExit",
}


def _raised_class_names(path):
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    names = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        # `raise err` / `raise self.helper(...)` re-raise values built
        # at a registered construction site; only direct class names
        # are statically checkable.
        if isinstance(target, ast.Name) and target.id[:1].isupper():
            names.append((target.id, node.lineno))
    return names


def _raise_site_context_keys():
    """The keys of every literal ``context={...}`` a raise under src sets."""
    keys = set()
    for dirpath, _, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Raise)
                        and isinstance(node.exc, ast.Call)):
                    continue
                for keyword in node.exc.keywords:
                    if keyword.arg == "context" and \
                            isinstance(keyword.value, ast.Dict):
                        keys.update(key.value for key in keyword.value.keys
                                    if isinstance(key, ast.Constant))
    return keys


class TestRaiseSiteCompleteness:
    def test_every_raise_site_uses_a_registered_code(self):
        registered = {klass.__name__
                      for klass in error_code_registry().values()}
        offenders = []
        for dirpath, _, filenames in os.walk(SRC_ROOT):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                for name, lineno in _raised_class_names(path):
                    if name in registered or \
                            name in _UNREGISTERED_ALLOWED:
                        continue
                    offenders.append(
                        f"{os.path.relpath(path, SRC_ROOT)}:{lineno} "
                        f"raises unregistered {name}")
        assert not offenders, "\n".join(offenders)

    @pytest.mark.parametrize("field", sorted(CONTEXT_FIELD_TYPES))
    def test_every_typed_field_is_set_at_a_raise_site(self, field):
        # the table types what raise sites set; a key no raise sets
        # belongs with the retired ones, which load untyped
        assert field in _raise_site_context_keys()
