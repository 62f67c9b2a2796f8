"""Content-hashed repro bundles: capture any failure as a portable trial.

A :class:`ReproBundle` is a directory (optionally tarred) that freezes
everything needed to re-trigger one failure on another machine with *no*
external dependencies: a ``manifest.json`` carrying the typed error
record (code, severity, context), the engine and schema versions, the
RNG seed, a JSON *trial spec* describing how to reconstruct the run, and
the expected *outcome fingerprint*; plus sidecar files — the serialized
:class:`~repro.gpu.resilience.FaultPlan`, scheme config, workload id +
inputs, and the relevant journal slice — when the trial has them.

Every byte is folded into a single SHA-256 *content hash* (stored in the
manifest and suffixed onto the bundle directory name), so a bundle that
was corrupted or edited in flight fails loudly at load time instead of
replaying a different trial than the one that crashed.

Capture never throws into the failure path it observes: the campaign
hooks wrap :func:`capture_bundle` defensively, because losing a bundle
must never mask (or re-raise over) the original failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tarfile
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro import __version__ as ENGINE_VERSION
from repro.errors import BundleError, ReproError

#: bump when the manifest layout changes incompatibly; replays of a
#: bundle written under a different version report ``STALE_SCHEMA``
BUNDLE_SCHEMA_VERSION = 1

#: manifest ``bundle_kind`` discriminator
BUNDLE_KIND = "swapcodes-repro-bundle"

MANIFEST_NAME = "manifest.json"

#: sidecar file names (all optional; listed in ``manifest["files"]``)
FAULT_PLAN_FILE = "fault_plan.json"
SCHEME_FILE = "scheme.json"
WORKLOAD_FILE = "workload.json"
JOURNAL_SLICE_FILE = "journal.jsonl"
JOURNAL_DIR = "journals"


def _canonical(payload: Any) -> str:
    """Canonical JSON: the byte form all fingerprints/hashes are over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def outcome_fingerprint(outcome: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of an outcome dict."""
    return hashlib.sha256(_canonical(outcome).encode()).hexdigest()


def error_outcome(source: Any) -> Dict[str, Any]:
    """The canonical outcome dict for a failure.

    Accepts a live exception, a :meth:`~repro.errors.ReproError.to_record`
    dict, or an engine failure dict (``{"message", "traceback", ...}``,
    optionally carrying an ``"error"`` record).  Capture and replay both
    build outcomes through this function, so a failure reproduces
    bit-identically exactly when this dict does.
    """
    if isinstance(source, ReproError):
        return {"code": source.code, "message": str(source),
                "context": dict(getattr(source, "context", {}) or {})}
    if isinstance(source, BaseException):
        return {"code": None,
                "message": f"{type(source).__name__}: {source}",
                "context": {}}
    if not isinstance(source, Mapping):
        raise BundleError(
            f"cannot derive an outcome from {type(source).__name__}")
    record = source.get("error")
    if isinstance(record, Mapping) and record.get("code"):
        return {"code": record["code"],
                "message": record.get("message", ""),
                "context": dict(record.get("context") or {})}
    if "code" in source and "message" in source:  # a bare to_record dict
        return {"code": source["code"],
                "message": source.get("message", ""),
                "context": dict(source.get("context") or {})}
    return {"code": None, "message": source.get("message", ""),
            "context": {}}


def certificate_outcome(certificate: Mapping[str, Any]) -> Dict[str, Any]:
    """The canonical outcome dict for a certification verdict.

    Operates on :meth:`~repro.certify.engine.Certificate.to_dict`
    payloads (already JSON-safe, already journaled), so the capture hook
    and the replay engine derive the fingerprint from the exact same
    bytes.  A passed certificate yields ``code None``; a failed one the
    ``certify.claim_violated`` code plus the sorted violated claims and
    their weight-minimal counterexamples.
    """
    violated = sorted(certificate.get("violated") or [])
    claims = certificate.get("claims") or {}
    scheme = certificate.get("scheme")
    if not violated:
        return {"code": None, "message": f"{scheme}: certified",
                "context": {}, "violated": [], "counterexamples": {}}
    return {
        "code": "certify.claim_violated",
        "message": (f"{scheme}: {len(violated)} claim(s) violated: "
                    f"{', '.join(violated)}"),
        "context": {"scheme": scheme,
                    "mode": certificate.get("mode"),
                    "seed": certificate.get("seed"),
                    "claims": violated},
        "violated": violated,
        "counterexamples": {
            name: (claims.get(name) or {}).get("counterexample")
            for name in violated},
    }


def _error_record(error: Any) -> Dict[str, Any]:
    if isinstance(error, ReproError):
        return error.to_record()
    if isinstance(error, Mapping):
        record = dict(error)
        for name in ("code", "message"):
            if name not in record:
                raise BundleError(
                    f"error record is missing {name!r}: {record!r}")
        record.setdefault("severity", "fatal")
        record.setdefault("recoverable", False)
        record.setdefault("context", {})
        return record
    raise BundleError(
        f"error must be a ReproError or record dict, got "
        f"{type(error).__name__}")


def _content_hash(manifest: Mapping[str, Any],
                  files: Mapping[str, bytes]) -> str:
    """One hash over the manifest (sans hash) and every sidecar file."""
    probe = {name: value for name, value in manifest.items()
             if name != "content_hash"}
    digest = hashlib.sha256()
    digest.update(_canonical(probe).encode())
    for name in sorted(files):
        digest.update(b"\x00" + name.encode() + b"\x00")
        digest.update(files[name])
    return digest.hexdigest()


@dataclass
class ReproBundle:
    """A loaded (and hash-verified) repro bundle."""

    path: str
    manifest: Dict[str, Any]
    #: keeps a tarball's extraction directory alive for the bundle's life
    _tempdir: Any = field(default=None, repr=False)

    @property
    def schema_version(self) -> Optional[int]:
        return self.manifest.get("schema_version")

    @property
    def code(self) -> Optional[str]:
        return (self.manifest.get("error") or {}).get("code")

    @property
    def severity(self) -> Optional[str]:
        return (self.manifest.get("error") or {}).get("severity")

    @property
    def capture_point(self) -> Optional[str]:
        return self.manifest.get("capture_point")

    @property
    def trial(self) -> Optional[Dict[str, Any]]:
        return self.manifest.get("trial")

    @property
    def outcome(self) -> Optional[Dict[str, Any]]:
        return self.manifest.get("outcome")

    @property
    def fingerprint(self) -> Optional[str]:
        return self.manifest.get("fingerprint")

    def file_path(self, name: str) -> str:
        """Absolute path of a sidecar file listed in the manifest."""
        if name not in (self.manifest.get("files") or {}):
            raise BundleError(f"bundle has no file {name!r}")
        return os.path.join(self.path, name)

    def read_json(self, name: str) -> Any:
        with open(self.file_path(name), "r", encoding="utf-8") as handle:
            return json.load(handle)

    def journal_files(self) -> List[str]:
        """Absolute paths of every bundled shard/lease journal."""
        prefix = JOURNAL_DIR + "/"
        return [os.path.join(self.path, name)
                for name in sorted(self.manifest.get("files") or {})
                if name.startswith(prefix)]

    def to_tarball(self, dest: Optional[str] = None) -> str:
        """Pack the bundle directory into ``<name>.tar.gz``."""
        base = os.path.basename(os.path.normpath(self.path))
        if dest is None:
            dest = os.path.normpath(self.path) + ".tar.gz"
        with tarfile.open(dest, "w:gz") as archive:
            archive.add(self.path, arcname=base)
        return dest

    @classmethod
    def load(cls, path: str) -> "ReproBundle":
        """Load a bundle directory or tarball, verifying its hash."""
        tempdir = None
        if os.path.isfile(path):
            tempdir = tempfile.TemporaryDirectory(prefix="repro-bundle-")
            path = _extract_tarball(path, tempdir.name)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except OSError as exc:
            raise BundleError(
                f"cannot read bundle manifest {manifest_path}: {exc}")
        except ValueError as exc:
            raise BundleError(
                f"bundle manifest {manifest_path} is not JSON: {exc}")
        if manifest.get("bundle_kind") != BUNDLE_KIND:
            raise BundleError(
                f"{path} is not a {BUNDLE_KIND} "
                f"(bundle_kind={manifest.get('bundle_kind')!r})")
        files: Dict[str, bytes] = {}
        for name in manifest.get("files") or {}:
            file_path = os.path.join(path, name)
            try:
                with open(file_path, "rb") as handle:
                    files[name] = handle.read()
            except OSError as exc:
                raise BundleError(
                    f"bundle file {name!r} is missing or unreadable: "
                    f"{exc}")
        recorded = manifest.get("content_hash")
        actual = _content_hash(manifest, files)
        if recorded != actual:
            raise BundleError(
                f"bundle {path} failed its content-hash check "
                f"(recorded {recorded!r}, actual {actual!r}); refusing "
                f"to replay a tampered or truncated bundle")
        return cls(path=path, manifest=manifest, _tempdir=tempdir)


def _extract_tarball(path: str, dest: str) -> str:
    """Safely extract a bundle tarball; returns the bundle directory."""
    try:
        with tarfile.open(path, "r:*") as archive:
            for member in archive.getmembers():
                name = member.name
                if name.startswith(("/", "..")) or ".." in name.split("/"):
                    raise BundleError(
                        f"bundle tarball member {name!r} escapes the "
                        f"extraction directory")
                if not (member.isreg() or member.isdir()):
                    raise BundleError(
                        f"bundle tarball member {name!r} is not a "
                        f"regular file")
            archive.extractall(dest)
    except tarfile.TarError as exc:
        raise BundleError(f"cannot extract bundle tarball {path}: {exc}")
    entries = [entry for entry in sorted(os.listdir(dest))
               if os.path.isdir(os.path.join(dest, entry))]
    if os.path.exists(os.path.join(dest, MANIFEST_NAME)):
        return dest
    if len(entries) == 1:
        return os.path.join(dest, entries[0])
    raise BundleError(
        f"bundle tarball {path} does not contain a single bundle "
        f"directory (found {entries})")


def _slug(code: Optional[str]) -> str:
    return (code or "unknown").replace(".", "-")


def capture_bundle(error: Any, *, capture_point: str, out_dir: str,
                   trial: Optional[Mapping[str, Any]] = None,
                   seed: Optional[int] = None,
                   outcome: Optional[Mapping[str, Any]] = None,
                   fault_plan: Optional[Mapping[str, Any]] = None,
                   scheme: Optional[Mapping[str, Any]] = None,
                   workload: Optional[Mapping[str, Any]] = None,
                   journal_records: Optional[Sequence[Mapping]] = None,
                   journal_files: Optional[Mapping[str, str]] = None,
                   ) -> str:
    """Write one repro bundle under ``out_dir``; returns its path.

    ``error`` is the live exception or its record; ``trial`` is the
    JSON spec :func:`repro.bundle.replay` reconstructs the run from
    (``None`` marks a forensic-only bundle that cannot be replayed).
    ``outcome`` defaults to :func:`error_outcome` of the error — the
    dict whose fingerprint the replay must match bit-identically.
    ``journal_records`` become the bundled journal slice;
    ``journal_files`` (name -> source path) are copied under
    ``journals/``.  Writing is idempotent per content hash: capturing
    the same failure twice lands on the same directory.
    """
    from repro.inject.journal import JOURNAL_VERSION

    record = _error_record(error)
    final_outcome = dict(outcome) if outcome is not None \
        else error_outcome(error)

    files: Dict[str, bytes] = {}
    if fault_plan is not None:
        files[FAULT_PLAN_FILE] = _canonical(dict(fault_plan)).encode()
    if scheme is not None:
        files[SCHEME_FILE] = _canonical(dict(scheme)).encode()
    if workload is not None:
        files[WORKLOAD_FILE] = _canonical(dict(workload)).encode()
    if journal_records:
        lines = [json.dumps(dict(entry), sort_keys=True)
                 for entry in journal_records]
        files[JOURNAL_SLICE_FILE] = ("\n".join(lines) + "\n").encode()
    for name, source in sorted((journal_files or {}).items()):
        safe = os.path.basename(name)
        with open(source, "rb") as handle:
            files[f"{JOURNAL_DIR}/{safe}"] = handle.read()

    manifest: Dict[str, Any] = {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "bundle_kind": BUNDLE_KIND,
        "engine_version": ENGINE_VERSION,
        "journal_version": JOURNAL_VERSION,
        "capture_point": capture_point,
        "error": record,
        "seed": seed,
        "trial": dict(trial) if trial is not None else None,
        "outcome": final_outcome,
        "fingerprint": outcome_fingerprint(final_outcome),
        "files": {name: hashlib.sha256(data).hexdigest()
                  for name, data in files.items()},
    }
    manifest["content_hash"] = _content_hash(manifest, files)

    name = f"bundle-{_slug(record.get('code'))}-" \
           f"{manifest['content_hash'][:12]}"
    target = os.path.join(out_dir, name)
    if os.path.isdir(target):
        return target  # identical content already captured
    os.makedirs(out_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=f".{name}.", dir=out_dir)
    try:
        for file_name, data in files.items():
            file_path = os.path.join(staging, file_name)
            os.makedirs(os.path.dirname(file_path), exist_ok=True)
            with open(file_path, "wb") as handle:
                handle.write(data)
        with open(os.path.join(staging, MANIFEST_NAME), "w",
                  encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True, indent=2)
            handle.write("\n")
        try:
            os.rename(staging, target)
        except OSError:
            if os.path.isdir(target):  # lost a benign race
                shutil.rmtree(staging, ignore_errors=True)
            else:
                raise
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return target
