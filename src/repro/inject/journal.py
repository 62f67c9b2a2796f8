"""Append-only, tamper-evident JSONL journal behind the campaign engine.

Every work-unit lifecycle event — ``unit_started``, one ``batch`` per
completed batch of injections, a terminal ``unit_done`` (or
``unit_quarantined`` for dead-lettered units), and ``campaign_paused``
when a drain request stops the run — is appended as one JSON line and
flushed immediately, so a campaign killed at any point leaves a prefix of
valid records (plus at most one torn final line, which replay ignores).
Re-running the engine against the same journal path replays that prefix:
finished units are skipped outright and a unit interrupted mid-sweep
resumes after its last journaled batch.

Two integrity fields make the journal *tamper-evident* rather than merely
append-only:

``rix``
    a running record index (0 for the campaign header, incrementing by
    one per record).  A gap or repeat means records were dropped,
    reordered, or spliced in.
``crc``
    the CRC32 of the record's canonical JSON serialization (sorted keys,
    ``rix`` included, ``crc`` itself excluded).  One flipped byte in a
    record fails the check.

:meth:`JournalState.load` streams the file line by line (multi-GB
journals never load into memory) and verifies both fields on every
record that carries them; records written before the fields existed are
accepted unverified, so old journals stay resumable.  Anomalies on the
*final* line are the expected signature of a kill mid-append and are
tolerated; anomalies earlier in the file raise ``InjectionError`` with
the offending ``file:line`` — unless ``salvage=True``, which truncates
the replayed state at the first bad record so one flipped byte costs the
batches after it rather than the whole campaign (the engine's
deterministic batch seeds re-derive the lost records exactly).

The journal is the single source of truth for resume; the engine never
keeps checkpoint state anywhere else.

The distributed fabric (:mod:`repro.inject.fabric`) adds one thing to
the same format: the campaign header can carry *shard identity* fields
(``shard``, ``token``, ``shard_count``) that a writer refuses to append
across.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import InjectionError

#: journal schema version, bumped on incompatible record changes
#: (``crc``/``rix`` are additive and verified only when present, so they
#: did not bump the version)
JOURNAL_VERSION = 1


def _canonical(record: Dict[str, Any]) -> str:
    """The serialization the CRC is computed over (and what is written)."""
    return json.dumps(record, sort_keys=True)


def atomic_write_text(path: str, text: str, fsync: bool = True) -> None:
    """Write ``text`` to ``path`` atomically (temp + ``os.replace``).

    The primitive behind small files that readers may open while they
    are rewritten — the ``CERTIFICATE_<scheme>.json`` artifacts: a
    reader sees either the previous content or the new content, never a
    torn write.  With ``fsync`` (the default) the data is flushed to
    disk before the rename, so a crash straddling the replace cannot
    publish an empty file under the final name.
    """
    temp = f"{path}.tmp.{os.getpid()}"
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(text)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(temp, path)


@dataclass
class _ScanResult:
    """What one streaming pass over a journal file found."""

    #: complete, verified records seen (== the next record's ``rix``)
    records: int = 0
    #: lines that failed JSON decoding or an integrity check
    corrupt_lines: int = 0
    #: byte offset where a torn/corrupt tail starts (writer repair point)
    truncate_at: Optional[int] = None
    #: 1-based line number where a salvage stop happened, if any
    salvaged_line: Optional[int] = None
    #: journal lines lost to a salvage truncation (the bad line plus
    #: everything after it; 0 when no salvage stop happened)
    dropped_lines: int = 0
    #: whether the file's last byte is a newline (safe to append after)
    ends_with_newline: bool = True


def _scan_journal(path: str, salvage: bool = False,
                  absorb: Optional[Callable[[Dict[str, Any]], None]] = None
                  ) -> _ScanResult:
    """Stream ``path`` once, verifying and optionally absorbing records.

    Raises :class:`InjectionError` (with ``file:line``) on a mid-file
    anomaly unless ``salvage`` is set, in which case the scan stops at
    the first bad record and reports where.  Final-line anomalies — the
    torn tail a kill mid-append leaves — are tolerated in both modes.
    """
    result = _ScanResult()
    with open(path, "rb") as handle:
        pending: Optional[tuple] = None
        offset = 0
        number = 0
        for raw in handle:
            if pending is not None:
                if not _scan_line(path, result, salvage, absorb,
                                  *pending, is_last=False):
                    # salvage stop: tally what the truncation costs (the
                    # bad line itself plus every line after it)
                    result.dropped_lines = 1 + (1 if raw.strip() else 0) \
                        + sum(1 for rest in handle if rest.strip())
                    return result
            pending = (number, offset, raw)
            offset += len(raw)
            number += 1
        if pending is not None:
            result.ends_with_newline = pending[2].endswith(b"\n")
            _scan_line(path, result, salvage, absorb, *pending,
                       is_last=True)
    return result


def _verify_record(text: str, rix_expected: int
                   ) -> Tuple[Optional[Dict[str, Any]], str]:
    """Decode one journal line and check its CRC32 and record index.

    Returns ``(record, "")`` with the ``crc`` field stripped, or
    ``(None, what)`` naming the first check the line failed.  Records
    written before the integrity fields existed carry neither and pass.
    """
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        return None, "corrupt journal record"
    if not isinstance(record, dict):
        return None, "non-object journal record"
    stored_crc = record.pop("crc", None)
    if stored_crc is not None and \
            stored_crc != zlib.crc32(_canonical(record).encode("utf-8")):
        return None, "journal record failed its CRC32 check"
    rix = record.get("rix")
    if rix is not None and rix != rix_expected:
        return None, (f"journal record index {rix} != expected "
                      f"{rix_expected} (records dropped or spliced)")
    return record, ""


def _scan_line(path: str, result: _ScanResult, salvage: bool,
               absorb: Optional[Callable[[Dict[str, Any]], None]],
               number: int, offset: int, raw: bytes,
               is_last: bool) -> bool:
    """Verify one line; returns False when a salvage stop should end the scan."""
    text = raw.decode("utf-8", errors="replace").strip()
    if not text:
        return True

    def bad(what: str) -> bool:
        result.corrupt_lines += 1
        if is_last:
            # The expected signature of a kill mid-append: tolerate and
            # remember where the tail starts so a writer can repair it.
            result.truncate_at = offset
            return True
        if salvage:
            result.salvaged_line = number + 1
            result.truncate_at = offset
            return False
        raise InjectionError(
            f"{path}:{number + 1}: {what} before the final line; "
            f"pass salvage=True to resume from the last good record")

    record, problem = _verify_record(text, result.records)
    if record is None:
        return bad(problem)
    if absorb is not None:
        absorb(record)
    result.records += 1
    return True


class Journal:
    """Append-only writer for one campaign's JSONL journal.

    Opening an existing non-empty journal validates it before the first
    append: the header (``campaign``/version record) must parse and match
    :data:`JOURNAL_VERSION`, every record's CRC/index must verify (with
    ``salvage=True`` the file is physically truncated at the first bad
    record instead), and a torn final line left by a kill mid-append is
    truncated away so new records never merge into it.
    """

    def __init__(self, path: str, fsync: bool = False,
                 salvage: bool = False,
                 header: Optional[Dict[str, Any]] = None):
        self.path = path
        self.fsync = fsync
        self.header = dict(header) if header else {}
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._rix = 0
        needs_newline = False
        #: the typed ``journal_salvaged`` event this writer appended when
        #: opening truncated complete records away (None = clean open or
        #: only a torn final line, which costs nothing)
        self.salvage_event: Optional[Dict[str, Any]] = None
        salvage_event: Optional[Dict[str, Any]] = None
        if not fresh:
            scan = self._validate_existing(salvage)
            self._rix = scan.records
            if scan.truncate_at is not None:
                os.truncate(path, scan.truncate_at)
            elif not scan.ends_with_newline:
                needs_newline = True
            if scan.salvaged_line is not None:
                salvage_event = {
                    "dropped_records": scan.dropped_lines,
                    "last_good_rix": scan.records - 1,
                    "corrupt_line": scan.salvaged_line}
        self._handle = open(path, "a", encoding="utf-8")
        if needs_newline:
            self._handle.write("\n")
        if fresh:
            self.append({"type": "campaign", "version": JOURNAL_VERSION,
                         **self.header})
        elif salvage_event is not None:
            # a durable account of the data loss: how many records the
            # truncation dropped and where the replayable prefix ends,
            # so reports (and merges) can surface the salvage instead of
            # silently re-deriving the lost batches
            self.salvage_event = dict(salvage_event)
            self.append({"type": "journal_salvaged", **salvage_event})

    def _validate_existing(self, salvage: bool) -> _ScanResult:
        header: List[Dict[str, Any]] = []

        def check_header(record: Dict[str, Any]) -> None:
            if header:
                return
            header.append(record)
            if record.get("type") != "campaign":
                raise InjectionError(
                    f"{self.path}: not a campaign journal (first record "
                    f"is {record.get('type')!r}, expected 'campaign'); "
                    f"refusing to append")
            version = record.get("version")
            if version != JOURNAL_VERSION:
                raise InjectionError(
                    f"{self.path}: journal schema version {version!r} "
                    f"does not match this engine's {JOURNAL_VERSION}; "
                    f"refusing to append mixed-schema records")
            for key, wanted in self.header.items():
                if record.get(key) != wanted:
                    # Shard/fencing identity is part of the header: a
                    # writer opened for lease token t must never append
                    # into another lease's journal.
                    raise InjectionError(
                        f"{self.path}: journal header {key}="
                        f"{record.get(key)!r} does not match this "
                        f"writer's {key}={wanted!r}; refusing to append "
                        f"across shard/lease identities")

        return _scan_journal(self.path, salvage=salvage,
                             absorb=check_header)

    def append(self, record: Dict[str, Any]) -> None:
        """Write one record as a CRC-sealed JSON line and flush it."""
        if "type" not in record:
            raise InjectionError("journal records need a 'type' field")
        record = dict(record)
        record["rix"] = self._rix
        record["crc"] = zlib.crc32(_canonical(record).encode("utf-8"))
        self._handle.write(_canonical(record) + "\n")
        self._handle.flush()
        self._rix += 1
        if self.fsync:
            os.fsync(self._handle.fileno())

    def unit_started(self, unit_id: str, kind: str,
                     params: Dict[str, Any]) -> None:
        self.append({"type": "unit_started", "unit": unit_id, "kind": kind,
                     "params": params})

    def batch(self, unit_id: str, index: int, trials: int, successes: int,
              counts: Dict[str, int], attempts: int,
              payload: Optional[Dict[str, Any]] = None) -> None:
        record = {"type": "batch", "unit": unit_id, "index": index,
                  "trials": trials, "successes": successes,
                  "counts": counts, "attempts": attempts}
        if payload is not None:
            record["payload"] = payload
        self.append(record)

    def unit_done(self, unit_id: str, status: str, summary: Dict[str, Any],
                  failures: Optional[List[Dict[str, Any]]] = None) -> None:
        """Record a finished unit with its failed attempts, if any."""
        record = {"type": "unit_done", "unit": unit_id, "status": status,
                  "summary": summary}
        if failures:
            record["failures"] = failures
        self.append(record)

    def unit_quarantined(self, unit_id: str, summary: Dict[str, Any],
                         failures: List[Dict[str, Any]]) -> None:
        """Dead-letter a poison unit, keeping its captured tracebacks."""
        self.append({"type": "unit_quarantined", "unit": unit_id,
                     "status": "quarantined", "summary": summary,
                     "failures": failures})

    def campaign_paused(self, reason: str, in_flight: Optional[str],
                        pending: List[str]) -> None:
        """Record a signal-safe drain: what was running, what never ran."""
        self.append({"type": "campaign_paused", "reason": reason,
                     "in_flight": in_flight, "pending": pending})

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullJournal(Journal):
    """Journal stand-in when no path was given: records go nowhere."""

    def __init__(self):  # noqa: super().__init__ intentionally skipped
        self.path = None
        self.fsync = False
        self.header = {}
        self.salvage_event = None

    def append(self, record: Dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


@dataclass
class JournalState:
    """Replay of one journal file: who started, what ran, who finished."""

    path: Optional[str] = None
    #: the campaign header record (version plus any shard/lease identity
    #: fields — ``shard``, ``token``, ``shard_count`` — stamped by the
    #: fabric when the journal belongs to one leased shard)
    header: Optional[Dict[str, Any]] = None
    #: unit_id -> the unit_started record (parameters it was launched with)
    started: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: unit_id -> batch records sorted by index (first write per index wins)
    batches: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    #: unit_id -> the terminal unit_done / unit_quarantined record
    finished: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: unit_id -> the unit_quarantined record (the dead-letter list)
    quarantined: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: every campaign_paused record, in order (one per drained run)
    pauses: List[Dict[str, Any]] = field(default_factory=list)
    #: the first journaled engine configuration, if any
    config: Optional[Dict[str, Any]] = None
    #: records whose JSON or integrity fields failed verification
    corrupt_lines: int = 0
    #: 1-based line where a salvage load stopped replaying, if it did
    salvaged_line: Optional[int] = None
    #: every typed ``journal_salvaged`` record (a prior writer truncated
    #: complete records away), in journal order
    salvage_events: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def load(cls, path: str, salvage: bool = False) -> "JournalState":
        """Stream-replay ``path``; a missing file is an empty (fresh) state.

        Every line is verified (JSON decode, CRC32, record index) as it
        streams; the file is never buffered whole.  A bad *final* line
        is the torn tail of a kill and is ignored.  A bad earlier line
        raises :class:`InjectionError` naming the file and line — or,
        with ``salvage=True``, truncates the replayed state at the first
        bad record so resume re-derives everything after it.
        """
        state = cls(path=path)
        if not os.path.exists(path):
            return state
        scan = _scan_journal(path, salvage=salvage, absorb=state._absorb)
        state.corrupt_lines = scan.corrupt_lines
        state.salvaged_line = scan.salvaged_line
        return state

    def _absorb(self, record: Dict[str, Any]) -> None:
        kind = record.get("type")
        unit = record.get("unit")
        if kind == "campaign" and self.header is None:
            self.header = record
        elif kind == "config" and self.config is None:
            self.config = record.get("config")
        elif kind == "unit_started" and unit is not None:
            self.started.setdefault(unit, record)
        elif kind == "batch" and unit is not None:
            batches = self.batches.setdefault(unit, [])
            if not any(prior["index"] == record["index"]
                       for prior in batches):
                batches.append(record)
                batches.sort(key=lambda item: item["index"])
        elif kind == "unit_done" and unit is not None:
            self.finished.setdefault(unit, record)
        elif kind == "unit_quarantined" and unit is not None:
            self.finished.setdefault(unit, record)
            self.quarantined.setdefault(unit, record)
        elif kind == "campaign_paused":
            self.pauses.append(record)
        elif kind == "journal_salvaged":
            self.salvage_events.append(record)

    def next_batch_index(self, unit_id: str) -> int:
        """First batch index not yet journaled for ``unit_id``."""
        batches = self.batches.get(unit_id)
        if not batches:
            return 0
        return batches[-1]["index"] + 1

    def check_params(self, unit_id: str, params: Dict[str, Any]) -> None:
        """Refuse to resume a unit whose recorded parameters differ."""
        started = self.started.get(unit_id)
        if started is None:
            return
        recorded = started.get("params")
        if recorded != _round_trip(params):
            raise InjectionError(
                f"journal {self.path!r} recorded unit {unit_id!r} with "
                f"params {recorded!r}, which differ from {params!r}; "
                f"use a fresh journal path for a reconfigured campaign")


def _round_trip(params: Dict[str, Any]) -> Dict[str, Any]:
    """Params exactly as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(params))

