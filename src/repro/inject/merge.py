"""Deterministic, idempotent reduce of per-shard journals into one report.

Work stealing means the same batch may have been executed — and durably
journaled — by more than one lease holder.  The merge makes that
harmless by construction:

* **stable ordering** — shard journals are reduced in sorted
  ``(shard, token)`` order and records within a journal in ``rix``
  order, so the merged report is a pure function of the set of
  journals, not of filesystem enumeration order (merging any
  permutation of the same journals yields byte-identical output);
* **idempotent dedup** — batch records dedupe on ``(unit, batch
  index)`` and terminal records on ``unit``; because batches are pure
  functions of ``(unit params, batch index)``, duplicates are
  byte-equal and the first occurrence is kept;
* **conflict refusal** — duplicates that are *not* equal (same batch
  key, different counts; same unit id, different params) mean the
  campaign data is unsound, and the merge raises
  :class:`~repro.errors.MergeConflict` instead of guessing;
* **salvage awareness** — every journal loads with ``salvage=True``;
  a SIGKILLed holder's torn tail costs only the records after it, and
  any batch lost that way was either re-executed under a later lease
  (and merges from that journal) or never completed anywhere.

The canonical artifact (:meth:`MergedCampaign.to_dict` /
:func:`write_merged_report`) carries *only* campaign data — unit
tallies, Wilson estimates, totals — never lease provenance (tokens,
journal counts, retries), which legitimately differs between a
disturbed run and its undisturbed same-seed twin.  That is what makes
the byte-identical replay guarantee testable.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import MergeConflict
from repro.inject.engine import (CampaignReport, UnitReport, _empty_counts,
                                 wilson_interval)
from repro.inject.journal import JournalState

#: merged-artifact schema version, bumped on incompatible changes
MERGE_SCHEMA_VERSION = 1


@dataclass
class ShardSource:
    """Provenance of one shard's journals (kept out of the artifact)."""

    shard: str
    #: lease tokens whose journals contributed, ascending
    tokens: List[int] = field(default_factory=list)
    #: journal paths in merge order
    paths: List[str] = field(default_factory=list)
    #: lines that failed CRC/index/decode checks across those journals
    corrupt_lines: int = 0
    #: True if any contributing journal recorded a campaign_paused drain
    drained: bool = False


@dataclass
class MergedCampaign:
    """One campaign's deterministic reduce over every shard journal."""

    report: CampaignReport
    #: shard id -> provenance (never serialized into the artifact)
    sources: Dict[str, ShardSource]

    @property
    def estimate(self):
        """Wilson estimate over every shard's monitored trials."""
        trials = sum(unit.trials for unit in self.report.units.values())
        successes = sum(unit.successes
                        for unit in self.report.units.values())
        return wilson_interval(successes, trials)

    def to_dict(self) -> Dict[str, Any]:
        """The canonical, replay-stable merged-report payload."""
        units = []
        for unit in self.report.units.values():
            units.append({
                "unit": unit.unit_id, "kind": unit.kind,
                "status": unit.status,
                "stopped_early": unit.stopped_early,
                "counts": {key: count for key, count in unit.counts.items()
                           if count},
                "trials": unit.trials, "successes": unit.successes,
                "batches": unit.batches,
                "estimate": _estimate_dict(unit.estimate),
            })
        return {
            "schema": MERGE_SCHEMA_VERSION,
            # Nothing stops a sharded campaign fleet-wide, so this is
            # always false; the key stays because the sharded-campaign
            # digest hashes these bytes.
            "stopped_globally": False,
            "units": units,
            "totals": {key: count
                       for key, count in self.report.total_counts().items()
                       if count},
            "estimate": _estimate_dict(self.estimate),
        }


def _estimate_dict(estimate) -> Dict[str, Any]:
    return {"rate": estimate.rate, "low": estimate.low,
            "high": estimate.high, "trials": estimate.trials,
            "successes": estimate.successes}


def write_merged_report(merged: MergedCampaign, path: str) -> bytes:
    """Write the canonical merged artifact; returns the exact bytes.

    Canonical form — sorted keys, minimal separators, one trailing
    newline — so two merges of the same campaign data are byte-identical
    files, comparable with ``cmp``.
    """
    payload = json.dumps(merged.to_dict(), sort_keys=True,
                         separators=(",", ":")).encode("utf-8") + b"\n"
    with open(path, "wb") as handle:
        handle.write(payload)
    return payload


def _journal_sort_key(state: JournalState) -> Tuple[str, int]:
    header = state.header or {}
    shard = str(header.get("shard",
                           os.path.basename(state.path or "")))
    return shard, int(header.get("token", 0))


def _batch_fingerprint(record: Dict[str, Any]) -> Tuple:
    """The replay-invariant content of a batch record (attempts excluded)."""
    counts = {key: count for key, count in record.get("counts", {}).items()
              if count}
    return (record.get("trials"), record.get("successes"),
            tuple(sorted(counts.items())))


def merge_shard_journals(paths: List[str]) -> MergedCampaign:
    """Reduce ``paths`` (any order, duplicates welcome) into one report."""
    states = [JournalState.load(path, salvage=True)
              for path in sorted(set(paths))]
    states.sort(key=_journal_sort_key)

    sources: Dict[str, ShardSource] = {}
    unit_order: List[str] = []
    unit_started: Dict[str, Dict[str, Any]] = {}
    unit_batches: Dict[str, Dict[int, Dict[str, Any]]] = {}
    unit_done: Dict[str, Dict[str, Any]] = {}

    salvage_events: List[Dict[str, Any]] = []
    for state in states:
        shard, token = _journal_sort_key(state)
        source = sources.setdefault(shard, ShardSource(shard=shard))
        source.tokens.append(token)
        source.paths.append(state.path)
        source.corrupt_lines += state.corrupt_lines
        source.drained = source.drained or bool(state.pauses)
        salvage_events.extend(state.salvage_events)
        for unit_id, started in state.started.items():
            if unit_id not in unit_started:
                unit_order.append(unit_id)
                unit_started[unit_id] = started
            elif unit_started[unit_id].get("params") != \
                    started.get("params"):
                raise MergeConflict(
                    f"unit {unit_id!r} was journaled with params "
                    f"{unit_started[unit_id].get('params')!r} and "
                    f"{started.get('params')!r} in different shard "
                    f"journals; refusing to merge divergent campaigns")
        for unit_id, records in state.batches.items():
            batches = unit_batches.setdefault(unit_id, {})
            for record in records:
                index = record["index"]
                if index not in batches:
                    batches[index] = record
                elif _batch_fingerprint(batches[index]) != \
                        _batch_fingerprint(record):
                    raise MergeConflict(
                        f"batch {index} of unit {unit_id!r} was journaled "
                        f"with different counts by two lease holders "
                        f"({state.path}); duplicated execution must be "
                        f"deterministic — refusing to pick a winner")
        for unit_id, done in state.finished.items():
            unit_done.setdefault(unit_id, done)

    units: Dict[str, UnitReport] = {}
    for unit_id in unit_order:
        units[unit_id] = _merged_unit(
            unit_id, unit_started[unit_id],
            unit_batches.get(unit_id, {}), unit_done.get(unit_id))
    paused = any(report.status == "paused" for report in units.values())
    report = CampaignReport(units=units, journal_path=None, paused=paused,
                            salvage_events=salvage_events)
    return MergedCampaign(report=report, sources=sources)


def _merged_unit(unit_id: str, started: Dict[str, Any],
                 batches: Dict[int, Dict[str, Any]],
                 done: Optional[Dict[str, Any]]) -> UnitReport:
    counts = _empty_counts()
    trials = 0
    successes = 0
    payloads: List[Dict[str, Any]] = []
    for index in sorted(batches):
        record = batches[index]
        trials += record["trials"]
        successes += record["successes"]
        for outcome, count in record.get("counts", {}).items():
            counts[outcome] = counts.get(outcome, 0) + count
        if "payload" in record:
            payloads.append(record["payload"])
    batch_count = len(batches)
    stopped_early = False
    if done is not None:
        # The terminal summary is the authority: it already folds in the
        # batches above plus any terminal failure bin (a crashed unit's
        # final `crash` increment never appears as a batch record).
        summary = done.get("summary", {})
        status = done["status"]
        counts = _empty_counts()
        counts.update(summary.get("counts", {}))
        trials = summary.get("trials", trials)
        successes = summary.get("successes", successes)
        batch_count = summary.get("batches", batch_count)
        stopped_early = summary.get("stopped_early", False)
    else:
        status = "paused"
    return UnitReport(
        unit_id=unit_id, kind=started.get("kind", ""), status=status,
        counts=counts, trials=trials, successes=successes,
        batches=batch_count, retries=0, stopped_early=stopped_early,
        resumed=False, estimate=wilson_interval(successes, trials),
        detail="", payloads=payloads,
        failures=done.get("failures", []) if done else [])


def fabric_journal_paths(fabric_dir: str) -> List[str]:
    """Every shard lease journal under a fabric directory, sorted."""
    return sorted(glob.glob(os.path.join(fabric_dir,
                                         "shard-*.lease-*.jsonl")))


def merge_fabric_dir(fabric_dir: str) -> MergedCampaign:
    """Merge every shard lease journal found under ``fabric_dir``."""
    return merge_shard_journals(fabric_journal_paths(fabric_dir))
