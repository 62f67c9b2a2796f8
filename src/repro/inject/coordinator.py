"""The campaign coordinator (jobs, grants, chaos-safe protocol).

:class:`CoordinatorService` is the fabric's one coordinator.  It
listens on a :mod:`repro.inject.transport` endpoint, and
:class:`~repro.inject.worker.ShardWorker` holders *attach* over
message-framed connections, lease shards, heartbeat, and complete
them.  The coordinator owns everything durable: ``coordinator.jsonl``
(plan, lease transitions, global stop), the per-lease shard journals it
rebases on every grant, and the salvage-aware deterministic merge.  The
local deployment (:class:`~repro.inject.fabric.CampaignFabric`) plugs in
a listener that forks its holders; the socket deployment
(``examples/fabric_service.py``) lets them attach from other processes.
Both produce the same ``fabric_dir`` and the same merged bytes.

**The journals are the only record of progress.**  Holders and the
coordinator share one host, so the coordinator tails every lease
journal itself (:class:`~repro.inject.journal.JournalCursor`) into the
global Wilson estimator, deduped by ``(unit, batch index)``; the frame
protocol carries lease control only.  Divergent batch counts surface
where every holder's journal meets: the merge raises
:class:`~repro.errors.MergeConflict`, and rerunning
:func:`~repro.inject.merge.merge_fabric_dir` on the fabric dir raises it
again.

**The protocol is idempotent under at-least-once delivery.**  The
transport may drop, duplicate, reorder, or delay any frame (that is
exactly what :class:`~repro.inject.transport.ChaosConnection` does in
the tests), so every message is safe to re-deliver:

* every worker request carries a ``req`` nonce; replies echo it in
  ``re`` so a worker can discard stale replies after a resend;
* every shard-scoped message carries the shard id **and the fencing
  token**; anything under a superseded token is rejected with the same
  :class:`~repro.errors.StaleFencingToken` /
  :class:`~repro.errors.LeaseExpired` semantics as the
  :class:`~repro.inject.lease.LeaseTable` itself;
* a duplicated ``attach`` from a worker that already holds an active
  lease re-sends the *same* grant (no token bump — the reply, not the
  request, was lost);
* a duplicated ``complete`` for an already-completed lease is
  acknowledged and dropped.

Message kinds (worker → coordinator): ``attach``, ``reattach``,
``heartbeat``, ``complete``, ``goodbye``.  Coordinator → worker:
``grant``, ``wait``, ``done``, ``drain``, ``ok``, ``reject``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (FabricConfigError, FabricError,
                          StaleFencingToken, LeaseExpired, TransportClosed,
                          FrameError)
from repro.inject.engine import WilsonEstimate, WorkUnit, wilson_interval
from repro.inject.fabric import (COORDINATOR_JOURNAL, MERGED_REPORT,
                                 FabricConfig, FabricReport, build_plan,
                                 lease_header, lease_journal_path)
from repro.inject.journal import Journal, JournalCursor, _scan_journal
from repro.inject.lease import COMPLETED, LeaseTable, rebase_journal
from repro.inject.merge import (fabric_journal_paths, merge_shard_journals,
                                write_merged_report)

#: how many frames one attachment may deliver per poll tick (fairness cap)
_PUMP_BUDGET = 64

#: expiry reasons that are *not* steals: re-granting after these is
#: plain resume and stays legal even with steal=False
_BENIGN_EXPIRY = ("coordinator restart", "paused", "drained (paused)")

#: coordinator-journal records that replay into the lease table
_LEASE_RECORDS = ("lease_granted", "lease_expired", "lease_paused",
                  "lease_completed")


def wire_unit(unit: WorkUnit) -> Dict[str, Any]:
    """Encode one work unit for a grant frame (context-free by contract)."""
    return {"unit_id": unit.unit_id, "kind": unit.kind,
            "params": dict(unit.params)}


def unwire_unit(encoded: Dict[str, Any]) -> WorkUnit:
    """Decode a grant frame's work unit."""
    return WorkUnit(unit_id=encoded["unit_id"], kind=encoded["kind"],
                    params=dict(encoded.get("params") or {}), context=None)


class _GlobalEstimator:
    """Online fleet-wide Wilson estimator fed by journal cursors."""

    def __init__(self, half_width: Optional[float], min_trials: int,
                 z: float):
        self.half_width = half_width
        self.min_trials = min_trials
        self.z = z
        self.trials = 0
        self.successes = 0
        self._seen: Set[tuple] = set()

    def absorb(self, record: Dict[str, Any]) -> None:
        """Tick on one journal record (batches only; idempotent)."""
        if record.get("type") != "batch":
            return
        key = (record.get("unit"), record.get("index"))
        if key in self._seen:
            return
        self._seen.add(key)
        self.trials += record.get("trials", 0)
        self.successes += record.get("successes", 0)

    @property
    def estimate(self) -> WilsonEstimate:
        return wilson_interval(self.successes, self.trials, self.z)

    @property
    def tight(self) -> bool:
        if self.half_width is None or self.trials < self.min_trials:
            return False
        return self.estimate.half_width <= self.half_width


class _Attachment:
    """One live worker connection and what the coordinator granted it."""

    def __init__(self, conn):
        self.conn = conn
        self.worker: Optional[str] = None
        #: (shard, token) of the grant this attachment currently holds;
        #: kept so a duplicated attach re-sends the same grant instead
        #: of burning a fencing token on a lost reply
        self.granted: Optional[Tuple[str, int]] = None


class CoordinatorService:
    """Job-oriented coordinator for holders attaching over a transport.

    Single-threaded poll loop; the only concurrency is the transport
    itself (holder pump threads on the other end of each connection).
    All durable state lives under ``fabric_dir``, whichever listener
    the holders arrive through, so either deployment resumes the
    other's directory.
    """

    def __init__(self, fabric_dir: str,
                 config: Optional[FabricConfig] = None,
                 listener=None):
        self.config = config if config is not None else FabricConfig()
        self.fabric_dir = fabric_dir
        self.listener = listener
        self.table = LeaseTable(ttl_s=self.config.lease_ttl_s)
        self.plan: Dict[str, List[WorkUnit]] = {}
        self._attachments: List[_Attachment] = []
        self._cursors: Dict[str, JournalCursor] = {}
        self._paused_shards: Set[str] = set()
        self._estimator = _GlobalEstimator(
            self.config.global_ci_half_width,
            self.config.global_min_trials, self.config.z)
        self._stopped_globally = False
        self._drain_reason = ""
        self._drain_requested: Optional[str] = None
        self._journal: Optional[Journal] = None

    # -- job API -----------------------------------------------------------

    def submit(self, units: Sequence[WorkUnit]) -> None:
        """Plan a campaign as this service's job (one job per service)."""
        if self.plan:
            raise FabricConfigError(
                "coordinator service already has a submitted job; "
                "start a fresh service per job")
        for unit in units:
            if unit.context is not None:
                raise FabricConfigError(
                    f"work unit {unit.unit_id!r} carries a non-wire "
                    f"context; sharded campaigns ship units to their "
                    f"holders over the transport, so units must be "
                    f"context-free (context=None)")
        self.plan = build_plan(units, self.config)

    def request_drain(self, reason: str = "drain requested") -> None:
        """Ask the serve loop to drain the fleet (thread-safe)."""
        if self._drain_requested is None:
            self._drain_requested = reason

    # -- paths / helpers ---------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.fabric_dir, name)

    def _watch(self, journal_path: str) -> None:
        if journal_path not in self._cursors:
            self._cursors[journal_path] = JournalCursor(journal_path)

    def _open_shards(self) -> List[str]:
        return [shard for shard in self.plan
                if not self.table.completed(shard)
                and shard not in self._paused_shards]

    # -- serve loop --------------------------------------------------------

    def serve(self) -> FabricReport:
        """Serve the submitted job to attaching workers, then merge."""
        if not self.plan:
            raise FabricConfigError(
                "no job submitted; call submit(units) before serve()")
        os.makedirs(self.fabric_dir, exist_ok=True)
        self._journal = Journal(self._path(COORDINATOR_JOURNAL),
                                salvage=True,
                                header={"role": "fabric-coordinator"})
        farewell = "coordinator stopped"
        try:
            self._replay()
            for path in fabric_journal_paths(self.fabric_dir):
                self._watch(path)
            self._loop()
            report = self._merge()
            farewell = "job finished"
            return report
        finally:
            self._farewell(farewell)
            self._journal.close()
            self._journal = None

    def _replay(self) -> None:
        """Rebuild lease/fencing/plan state from ``coordinator.jsonl``.

        Every lease transition goes through ``table.apply_record``
        (leases in flight come back expired, reason ``coordinator
        restart``).  A fresh plan is journaled; a resume against a
        changed plan is refused; a recorded global stop re-arms the
        drain.
        """
        replayed: Dict[str, Dict[str, Any]] = {}

        def absorb(record: Dict[str, Any]) -> None:
            kind = record.get("type")
            if kind in _LEASE_RECORDS:
                self.table.apply_record(record)
            elif kind in ("fabric_planned", "global_stop"):
                replayed.setdefault(kind, record)

        _scan_journal(self._path(COORDINATOR_JOURNAL), salvage=True,
                      absorb=absorb)
        current = {shard: [unit.unit_id for unit in units]
                   for shard, units in self.plan.items()}
        planned = replayed.get("fabric_planned")
        if planned is None:
            self._journal.append({"type": "fabric_planned",
                                  "mode": self.config.mode,
                                  "shard_count": len(self.plan),
                                  "shards": current})
        elif planned.get("shards") != current:
            raise FabricError(
                f"fabric dir {self.fabric_dir!r} was planned with shards "
                f"{planned.get('shards')!r}, which differ from "
                f"{current!r}; use a fresh fabric dir for a reconfigured "
                f"campaign")
        if "global_stop" in replayed:
            self._stopped_globally = True
            self._set_drain(replayed["global_stop"].get(
                "reason", "global early-stop"))

    def _merge(self) -> FabricReport:
        """Merge every lease journal into ``merged_report.json``.

        Paused-ness comes from the merge *and* the lease table (a shard
        drained between units leaves nothing in any journal);
        ``fabric_done`` is journaled on full completion.  A merge
        conflict propagates; :func:`~repro.inject.merge.merge_fabric_dir`
        over the same ``fabric_dir`` raises it again.
        """
        merged = merge_shard_journals(
            fabric_journal_paths(self.fabric_dir), z=self.config.z,
            stopped_globally=self._stopped_globally)
        merged_path = self._path(MERGED_REPORT)
        write_merged_report(merged, merged_path)
        paused = merged.report.paused or any(
            not self.table.completed(shard) for shard in self.plan)
        if not paused:
            self._journal.append({
                "type": "fabric_done",
                "stopped_globally": self._stopped_globally,
                "merged": MERGED_REPORT})
        status = {}
        for shard in self.plan:
            lease = self.table.current(shard)
            if self.table.completed(shard):
                status[shard] = "completed"
            elif shard in self._paused_shards or paused:
                status[shard] = "paused"
            else:
                status[shard] = lease.state if lease else "pending"
        return FabricReport(
            merged=merged, fabric_dir=self.fabric_dir,
            merged_report_path=merged_path, shard_status=status,
            stopped_globally=self._stopped_globally, paused=paused,
            estimate=merged.estimate)

    def _loop(self) -> None:
        while True:
            if self._drain_requested is not None:
                self._set_drain(self._drain_requested)
            if not self._open_shards():
                return
            if self._drain_reason and not self.table.active_shards():
                return
            self._accept_new()
            self._pump()
            self._expire_stalled()
            self._tick_estimator()
            time.sleep(self.config.poll_interval_s)

    def _farewell(self, reason: str) -> None:
        """Best-effort goodbye so attached workers exit promptly."""
        for att in list(self._attachments):
            try:
                att.conn.send({"type": "done", "reason": reason})
            except (TransportClosed, FrameError, OSError):
                pass
            try:
                att.conn.close()
            except OSError:
                pass
        self._attachments.clear()

    # -- transport plumbing ------------------------------------------------

    def _accept_new(self) -> None:
        if self.listener is None:
            return
        while True:
            try:
                conn = self.listener.accept(timeout=0)
            except TransportClosed:
                return
            if conn is None:
                return
            self._attachments.append(_Attachment(conn))

    def _pump(self) -> None:
        for att in list(self._attachments):
            for _ in range(_PUMP_BUDGET):
                try:
                    message = att.conn.recv(timeout=0)
                except (TransportClosed, FrameError):
                    self._detach(att)
                    break
                if message is None:
                    break
                self._handle(att, message)
                if att not in self._attachments:
                    break

    def _detach(self, att: _Attachment) -> None:
        """Drop a dead connection; its lease stays and the TTL decides."""
        try:
            att.conn.close()
        except OSError:
            pass
        if att in self._attachments:
            self._attachments.remove(att)

    def _send(self, att: _Attachment, message: Dict[str, Any]) -> bool:
        try:
            att.conn.send(message)
            return True
        except (TransportClosed, FrameError):
            self._detach(att)
            return False

    # -- message handlers --------------------------------------------------

    def _handle(self, att: _Attachment, message: Dict[str, Any]) -> None:
        kind = message.get("type")
        if kind == "attach":
            self._handle_attach(att, message)
        elif kind == "reattach":
            self._handle_reattach(att, message)
        elif kind == "heartbeat":
            self._handle_heartbeat(att, message)
        elif kind == "complete":
            self._handle_complete(att, message)
        elif kind == "goodbye":
            self._detach(att)
        # unknown kinds are ignored: an older coordinator must not die
        # on a newer worker's optional extensions

    def _grant_message(self, shard: str, token: int,
                       req: Any) -> Dict[str, Any]:
        return {
            "type": "grant", "re": req, "shard": shard, "token": token,
            "units": [wire_unit(unit) for unit in self.plan[shard]],
            "journal": lease_journal_path(self.fabric_dir, shard, token),
            "header": lease_header(shard, token, len(self.plan)),
            # the whole config, not the journaled to_dict(): fsync and
            # salvage must reach the holder's engine
            "engine": dataclasses.asdict(
                self.config.shard_engine_config()),
            "heartbeat_interval_s": self.config.heartbeat_interval_s}

    def _handle_attach(self, att: _Attachment,
                       message: Dict[str, Any]) -> None:
        req = message.get("req")
        att.worker = message.get("worker") or att.worker
        if self._drain_reason:
            self._send(att, {"type": "drain", "re": req,
                             "reason": self._drain_reason})
            return
        if att.granted is not None:
            # Duplicated attach (the grant reply was lost): re-send the
            # same grant while its lease is still current — burning a
            # token here would turn every dropped reply into a steal.
            shard, token = att.granted
            lease = self.table.current(shard)
            if lease is not None and lease.active and \
                    lease.token == token:
                self._send(att, self._grant_message(shard, token, req))
                return
            att.granted = None
        open_shards = self._open_shards()
        if not open_shards:
            self._send(att, {"type": "done", "re": req,
                             "reason": "all shards completed"})
            return
        grantable = [shard for shard in open_shards
                     if self.table.current(shard) is None
                     or not self.table.current(shard).active]
        if not grantable:
            self._send(att, {"type": "wait", "re": req,
                             "retry_s": max(
                                 self.config.poll_interval_s * 4,
                                 self.config.heartbeat_interval_s)})
            return
        self._grant(att, grantable[0], req)

    def _grant(self, att: _Attachment, shard: str, req: Any) -> None:
        previous = self.table.current(shard)
        if previous is not None:
            if not self.config.steal and \
                    previous.reason not in _BENIGN_EXPIRY:
                raise FabricError(
                    f"shard {shard!r} lost lease token {previous.token} "
                    f"({previous.reason or 'expired'}) and work stealing "
                    f"is disabled (steal=False)",
                    context={"shard": shard, "token": previous.token})
            if self.table.token(shard) >= self.config.max_lease_attempts:
                raise FabricError(
                    f"shard {shard!r} exhausted its "
                    f"{self.config.max_lease_attempts} lease attempts; "
                    f"poison shard — inspect its lease journals under "
                    f"{self.fabric_dir!r}",
                    context={"shard": shard,
                             "token": self.table.token(shard)})
        lease = self.table.grant(shard)
        journal_path = lease_journal_path(self.fabric_dir, shard,
                                          lease.token)
        self._journal.append({
            "type": "lease_granted", "shard": shard, "token": lease.token,
            "ttl_s": lease.ttl_s,
            "journal": os.path.basename(journal_path),
            "worker": att.worker})
        sources = [lease_journal_path(self.fabric_dir, shard, token)
                   for token in range(1, lease.token)]
        rebase_journal(sources, journal_path,
                       header=lease_header(shard, lease.token,
                                           len(self.plan)))
        self._watch(journal_path)
        att.granted = (shard, lease.token)
        self._send(att, self._grant_message(shard, lease.token, req))

    def _handle_reattach(self, att: _Attachment,
                         message: Dict[str, Any]) -> None:
        req = message.get("req")
        shard = message.get("shard")
        token = int(message.get("token", 0))
        att.worker = message.get("worker") or att.worker
        try:
            # the same gate renew/complete go through: current token of
            # an active lease, or the holder has been superseded
            self.table._checked(shard, token, "reattach")
        except FabricError as exc:
            self._send(att, {
                "type": "reject", "for": "reattach", "re": req,
                "shard": shard, "token": token, "code": exc.code,
                "reason": str(exc)})
            return
        att.granted = (shard, token)
        for other in self._attachments:
            if other is not att and other.granted == (shard, token):
                other.granted = None  # the old connection is superseded
        self._send(att, {"type": "ok", "for": "reattach", "re": req,
                         "shard": shard, "token": token})
        if self._drain_reason:
            self._send(att, {"type": "drain",
                             "reason": self._drain_reason})

    def _handle_heartbeat(self, att: _Attachment,
                          message: Dict[str, Any]) -> None:
        shard = message.get("shard")
        token = int(message.get("token", 0))
        try:
            self.table.renew(shard, token, int(message.get("beat", 0)))
        except FabricError as exc:
            # an active zombie: tell it immediately instead of letting
            # it burn a full shard's work before the complete is refused
            self._send(att, {
                "type": "reject", "for": "heartbeat", "shard": shard,
                "token": token, "code": exc.code, "reason": str(exc)})

    def _handle_complete(self, att: _Attachment,
                         message: Dict[str, Any]) -> None:
        req = message.get("req")
        shard = message.get("shard")
        token = int(message.get("token", 0))
        paused = bool(message.get("paused", False))
        ack = {"type": "ok", "for": "complete", "re": req,
               "shard": shard, "token": token}
        lease = self.table.current(shard)
        accepted_already = lease is not None and lease.token == token \
            and (lease.state == COMPLETED
                 or (not lease.active and shard in self._paused_shards))
        if accepted_already:
            # Duplicated complete (at-least-once delivery): this exact
            # transition was already accepted — acknowledge and drop.
            # A lease that merely TTL-expired does NOT take this path:
            # it falls through to the fencing gate and is rejected.
            if att.granted == (shard, token):
                att.granted = None
            self._send(att, ack)
            return
        if paused and not self._stopped_globally:
            # An interruption pause (not the global early-stop): release
            # the lease cleanly so a resume re-grants it.  Pauses go
            # through the same fencing gate as completions — a
            # superseded or TTL-expired holder cannot even pause.
            try:
                self.table._checked(shard, token, "pause")
            except FabricError as exc:
                self._journal.append({
                    "type": "lease_rejected", "shard": shard,
                    "token": token, "code": exc.code,
                    "reason": str(exc)})
                if att.granted == (shard, token):
                    att.granted = None
                self._send(att, {
                    "type": "reject", "for": "complete", "re": req,
                    "shard": shard, "token": token, "code": exc.code,
                    "reason": str(exc)})
                return
            self.table.expire(shard, "drained (paused)")
            self._journal.append({"type": "lease_paused",
                                  "shard": shard, "token": token})
            self._paused_shards.add(shard)
            if att.granted == (shard, token):
                att.granted = None
            self._send(att, ack)
            return
        try:
            self.table.complete(shard, token)
        except (StaleFencingToken, LeaseExpired) as exc:
            self._journal.append({
                "type": "lease_rejected", "shard": shard, "token": token,
                "code": exc.code, "reason": str(exc)})
            if att.granted == (shard, token):
                att.granted = None
            self._send(att, {
                "type": "reject", "for": "complete", "re": req,
                "shard": shard, "token": token, "code": exc.code,
                "reason": str(exc)})
            return
        except FabricError as exc:
            self._send(att, {
                "type": "reject", "for": "complete", "re": req,
                "shard": shard, "token": token, "code": exc.code,
                "reason": str(exc)})
            return
        self._journal.append({"type": "lease_completed", "shard": shard,
                              "token": token, "paused": paused})
        if att.granted == (shard, token):
            att.granted = None
        self._send(att, ack)

    # -- lease TTL / global stop -------------------------------------------

    def _expire_stalled(self) -> None:
        for shard in self.table.expired_shards():
            lease = self.table.current(shard)
            reason = (f"no heartbeat for {self.config.lease_ttl_s:.1f}s "
                      f"(token {lease.token})")
            self.table.expire(shard, reason)
            self._journal.append({"type": "lease_expired", "shard": shard,
                                  "token": lease.token, "reason": reason})
            for att in self._attachments:
                if att.granted == (shard, lease.token):
                    att.granted = None

    def _tick_estimator(self) -> None:
        for cursor in self._cursors.values():
            for record in cursor.poll():
                self._estimator.absorb(record)
        if not self._stopped_globally and self._estimator.tight:
            estimate = self._estimator.estimate
            reason = (f"global early-stop: detection rate {estimate} "
                      f"after {estimate.trials} fleet-wide trials")
            self._stopped_globally = True
            self._journal.append({
                "type": "global_stop", "reason": reason,
                "estimate": {
                    "rate": estimate.rate, "low": estimate.low,
                    "high": estimate.high, "trials": estimate.trials,
                    "successes": estimate.successes}})
            self._set_drain(reason)

    def _set_drain(self, reason: str) -> None:
        if not self._drain_reason:
            self._drain_reason = reason
        for att in list(self._attachments):
            self._send(att, {"type": "drain",
                             "reason": self._drain_reason})
