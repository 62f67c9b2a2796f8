"""Fault-tolerant distributed campaign fabric (leased shards, one coordinator).

The paper's coverage numbers rest on statistically large injection
campaigns; one host's supervised engine tops out near a few thousand
trials per second.  The fabric generalizes the engine/supervisor/journal
stack from a subprocess pool to a *sharded fleet* that survives holder
loss and coordinator restart without corrupting a single tally.

**Leased shards.**  :func:`partition_units` round-robins the campaign's
distinct work units into deterministic shards, so the merged result is
the single-engine run's.  A shard only ever runs under a *lease*
(:mod:`repro.inject.lease`) carrying a fencing token.
:class:`CampaignFabric` is the coordinator: it forks one holder process
per grant and hands it the shard's units, its lease journal path and
header and the engine config as fork arguments.  The holder runs the
supervised engine and exits ``0`` when its shard finishes or
:data:`PAUSED_EXIT` when it drains.  Any other exit expires the lease,
and the shard is re-granted at once to a fresh holder whose journal is
rebased from every prior holder's durable records.

**Drains and orphans.**  Each holder gets one control pipe, and only the
coordinator keeps its write end.  A drain writes its reason and closes
the pipe; a coordinator that dies closes it by dying.  Either way the
holder's watcher thread reads end-of-file and drains the engine at its
next safe point, exactly as a supervised SIGTERM would.

**The journals are the only record of progress.**  The coordinator
learns nothing from a holder but its exit code; it reads the lease
journals once, when it merges them after the last holder exits.
Divergent batch counts surface there: the merge raises
:class:`~repro.errors.MergeConflict`, and rerunning
:func:`~repro.inject.merge.merge_fabric_dir` on the fabric dir raises it
again.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import signal as _signal
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FabricConfigError, FabricError
from repro.inject.engine import CampaignEngine, EngineConfig, WorkUnit
from repro.inject.journal import Journal, _scan_journal
from repro.inject.lease import LeaseTable, rebase_journal
from repro.inject.merge import (MergedCampaign, fabric_journal_paths,
                                merge_shard_journals, write_merged_report)
from repro.inject.supervisor import DRAIN_SIGNALS, CampaignSupervisor

#: a holder's exit code when a drain paused its shard (0: it finished;
#: anything else expires its lease)
PAUSED_EXIT = 75

#: how long the coordinator waits for a holder to exit before it looks
#: for a drain request again
POLL_INTERVAL_S = 0.05

#: coordinator-journal records that replay into the lease table
_LEASE_RECORDS = ("lease_granted", "lease_expired", "lease_paused",
                  "lease_completed")


def partition_units(units: Sequence[WorkUnit],
                    shards: int) -> List[List[WorkUnit]]:
    """Round-robin distinct units across ``shards`` buckets (in order)."""
    if shards < 1:
        raise FabricError(f"shards must be >= 1, got {shards}")
    buckets: List[List[WorkUnit]] = [[] for _ in range(shards)]
    for index, unit in enumerate(units):
        buckets[index % shards].append(unit)
    return buckets


@dataclass
class FabricConfig:
    """Policy knobs for one campaign fabric."""

    #: number of leased shards the campaign splits into
    shards: int = 4
    #: give up on a shard after this many lease grants (poison shards)
    max_lease_attempts: int = 5
    #: per-shard engine configuration; None = engine defaults without
    #: per-unit early stopping or a batch timeout
    engine: Optional[EngineConfig] = None

    def __post_init__(self):
        if self.shards < 1:
            raise FabricConfigError(
                f"shards must be >= 1, got {self.shards}")
        if self.max_lease_attempts < 1:
            raise FabricConfigError(
                f"max_lease_attempts must be >= 1, got "
                f"{self.max_lease_attempts}")

    def shard_engine_config(self) -> EngineConfig:
        """The engine config every holder runs its shard under."""
        if self.engine is not None:
            return self.engine
        return EngineConfig(ci_half_width=None, timeout_s=None)


@dataclass
class FabricReport:
    """Outcome of one fabric run: the merged campaign plus fleet facts."""

    merged: MergedCampaign
    fabric_dir: str
    merged_report_path: str
    #: shard id -> "completed" / "paused" / terminal lease state
    shard_status: Dict[str, str]
    #: True when a drain left work unfinished; rerun the same fabric_dir
    #: (resume) to finish it
    paused: bool

    @property
    def report(self):
        """The merged :class:`~repro.inject.engine.CampaignReport`."""
        return self.merged.report


#: the coordinator's own journal and the merged artifact, per fabric dir
COORDINATOR_JOURNAL = "coordinator.jsonl"
MERGED_REPORT = "merged_report.json"


def _shard_id(index: int) -> str:
    return f"shard-{index:03d}"


def lease_journal_path(fabric_dir: str, shard: str, token: int) -> str:
    """The journal path of one lease grant (shared fabric naming)."""
    return os.path.join(fabric_dir, f"{shard}.lease-{token:03d}.jsonl")


def lease_header(shard: str, token: int,
                 shard_count: int) -> Dict[str, Any]:
    """The shard-identity header every lease journal is stamped with."""
    return {"role": "shard", "shard": shard, "token": token,
            "shard_count": shard_count}


def build_plan(units: Sequence[WorkUnit],
               config: "FabricConfig") -> Dict[str, List[WorkUnit]]:
    """Deterministically map a campaign onto named shards.

    The same units always get the same shard ids, which is what makes
    merged reports byte-identical across runs.
    """
    ids = [unit.unit_id for unit in units]
    if len(set(ids)) != len(ids):
        raise FabricError(f"duplicate unit ids in campaign: {ids}")
    buckets = partition_units(units, config.shards)
    plan = {_shard_id(index): bucket
            for index, bucket in enumerate(buckets) if bucket}
    if not plan:
        raise FabricError("the campaign has no work units to shard")
    return plan


def _watch_control(control: int, supervisor: CampaignSupervisor) -> None:
    """Drain the holder's engine once the coordinator closes its pipe."""
    chunks = []
    while True:
        chunk = os.read(control, 4096)
        if not chunk:
            break
        chunks.append(chunk)
    reason = b"".join(chunks).decode("utf-8", "replace")
    supervisor.request_drain(reason or "coordinator exited")


def _holder_main(holder: str, shard: str, token: int,
                 units: List[WorkUnit], journal_path: str,
                 header: Dict[str, Any], engine_config: EngineConfig,
                 control: int, write_ends: List[int]) -> None:
    """Forked holder: run one leased shard under the supervised engine."""
    for end in write_ends:
        # a coordinator write end left open here would hide a dead
        # coordinator's EOF from this holder and from its siblings
        os.close(end)
    supervisor = CampaignSupervisor()
    with supervisor:
        # which process ran this lease (ignored by replay, rebase, and
        # merge — the record is not in their vocabulary)
        journal = Journal(journal_path, header=header)
        journal.append({"type": "worker_attached", "worker": holder,
                        "shard": shard, "token": token,
                        "pid": os.getpid()})
        journal.close()
        # Started before the engine runs, this thread also sets the
        # holder's slot count: with a second live thread the engine
        # keeps one batch worker in flight (CampaignEngine._slots),
        # while the holders spread the shards over the CPUs.
        threading.Thread(target=_watch_control,
                         args=(control, supervisor),
                         name=f"{holder}-control", daemon=True).start()
        engine = CampaignEngine(engine_config, supervisor=supervisor)
        report = engine.run(units, journal_path, journal_header=header)
    if report.paused:
        raise SystemExit(PAUSED_EXIT)


class CampaignFabric:
    """The coordinator: one forked holder process per lease grant.

    All durable state lives under ``fabric_dir``:

    * ``coordinator.jsonl`` — the coordinator's own CRC+rix journal
      (shard plan, every lease transition, the final ``fabric_done``);
    * ``shard-<k>.lease-<t>.jsonl`` — one engine journal per lease
      grant, rebased from its predecessors on every steal;
    * ``merged_report.json`` — the canonical merged artifact.

    Rerunning a fabric against the same directory *is* the resume path:
    replayed completions stay completed, every lease that was in flight
    is expired and re-granted under a fresh fencing token, and the merge
    produces byte-identical results.
    """

    def __init__(self, units: Sequence[WorkUnit], fabric_dir: str,
                 config: Optional[FabricConfig] = None):
        self.config = config if config is not None else FabricConfig()
        self.fabric_dir = fabric_dir
        for unit in units:
            if unit.context is not None:
                raise FabricConfigError(
                    f"work unit {unit.unit_id!r} carries a context; "
                    f"sharded campaigns plan, journal and merge units by "
                    f"kind and params alone, so units must be "
                    f"context-free (context=None)")
        self.plan: Dict[str, List[WorkUnit]] = build_plan(units,
                                                          self.config)
        self.table = LeaseTable()
        #: holder id -> forked holder process, until it is reaped
        self.processes: Dict[str, Any] = {}
        #: holder id -> the (shard, token) of the lease it holds
        self._holds: Dict[str, Tuple[str, int]] = {}
        #: holder id -> write end of its control pipe, until drained
        self._control: Dict[str, int] = {}
        self._forked = 0
        self._paused_shards: Set[str] = set()
        self._drain_requested: Optional[str] = None
        self._journal: Optional[Journal] = None

    def request_drain(self, reason: str = "drain requested") -> None:
        """Drain the fleet: every holder pauses at its next safe point."""
        if self._drain_requested is None:
            self._drain_requested = reason

    def _handle_signal(self, signum, frame) -> None:
        self.request_drain(f"signal {_signal.Signals(signum).name}")

    def run(self) -> FabricReport:
        """Run every shard to completion (or drain), then merge."""
        os.makedirs(self.fabric_dir, exist_ok=True)
        self._journal = Journal(self._path(COORDINATOR_JOURNAL),
                                salvage=True,
                                header={"role": "fabric-coordinator"})
        previous: Dict[int, Any] = {}
        try:
            # Off the main thread CPython forbids signal(); callers can
            # still request_drain() programmatically.
            if threading.current_thread() is threading.main_thread():
                for signum in DRAIN_SIGNALS:
                    previous[signum] = _signal.signal(
                        signum, self._handle_signal)
            self._replay()
            self._loop()
            return self._merge()
        finally:
            self._stop_holders()
            self._journal.close()
            self._journal = None
            for signum, handler in previous.items():
                _signal.signal(signum, handler)

    # -- paths / helpers ---------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.fabric_dir, name)

    def _open_shards(self) -> List[str]:
        return [shard for shard in self.plan
                if not self.table.completed(shard)
                and shard not in self._paused_shards]

    # -- replay / merge ----------------------------------------------------

    def _replay(self) -> None:
        """Rebuild lease/fencing/plan state from ``coordinator.jsonl``.

        Every lease transition goes through ``table.apply_record``
        (leases in flight come back expired, reason ``coordinator
        restart``).  A fresh plan is journaled, and a resume against a
        changed plan is refused.
        """
        replayed: Dict[str, Dict[str, Any]] = {}

        def absorb(record: Dict[str, Any]) -> None:
            kind = record.get("type")
            if kind in _LEASE_RECORDS:
                self.table.apply_record(record)
            elif kind == "fabric_planned":
                replayed.setdefault(kind, record)

        _scan_journal(self._path(COORDINATOR_JOURNAL), salvage=True,
                      absorb=absorb)
        current = {shard: [unit.unit_id for unit in units]
                   for shard, units in self.plan.items()}
        planned = replayed.get("fabric_planned")
        if planned is None:
            self._journal.append({"type": "fabric_planned",
                                  "shard_count": len(self.plan),
                                  "shards": current})
        elif planned.get("shards") != current:
            raise FabricError(
                f"fabric dir {self.fabric_dir!r} was planned with shards "
                f"{planned.get('shards')!r}, which differ from "
                f"{current!r}; use a fresh fabric dir for a reconfigured "
                f"campaign")

    def _merge(self) -> FabricReport:
        """Merge every lease journal into ``merged_report.json``.

        Paused-ness comes from the merge *and* the lease table (a shard
        drained between units leaves nothing in any journal);
        ``fabric_done`` is journaled on full completion.  A merge
        conflict propagates; :func:`~repro.inject.merge.merge_fabric_dir`
        over the same ``fabric_dir`` raises it again.
        """
        merged = merge_shard_journals(fabric_journal_paths(self.fabric_dir))
        merged_path = self._path(MERGED_REPORT)
        write_merged_report(merged, merged_path)
        paused = merged.report.paused or any(
            not self.table.completed(shard) for shard in self.plan)
        if not paused:
            self._journal.append({"type": "fabric_done",
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
            paused=paused)

    # -- the coordinator loop ----------------------------------------------

    def _loop(self) -> None:
        while True:
            draining = self._drain_requested is not None
            if draining:
                self._set_drain()
            open_shards = self._open_shards()
            if not open_shards:
                return
            if draining:
                if not self.processes:
                    return
            else:
                for shard in open_shards:
                    lease = self.table.current(shard)
                    if lease is None or not lease.active:
                        self._grant(shard)
            self._await_exits()
            self._reap()

    def _grant(self, shard: str) -> None:
        """Lease ``shard`` under its next token and fork its holder.

        The grant is journaled before the lease journal is rebased and
        before the holder forks, so a coordinator that dies in between
        replays it as a lease to expire.
        """
        if self.table.token(shard) >= self.config.max_lease_attempts:
            raise FabricError(
                f"shard {shard!r} exhausted its "
                f"{self.config.max_lease_attempts} lease attempts; "
                f"poison shard — inspect its lease journals under "
                f"{self.fabric_dir!r}",
                context={"shard": shard, "token": self.table.token(shard)})
        token = self.table.grant(shard).token
        holder = f"holder-{self._forked:03d}"
        self._forked += 1
        journal_path = lease_journal_path(self.fabric_dir, shard, token)
        header = lease_header(shard, token, len(self.plan))
        self._journal.append({
            "type": "lease_granted", "shard": shard, "token": token,
            "journal": os.path.basename(journal_path), "worker": holder})
        rebase_journal([lease_journal_path(self.fabric_dir, shard, prior)
                        for prior in range(1, token)],
                       journal_path, header=header)
        control, write_end = os.pipe()
        self._control[holder] = write_end
        process = multiprocessing.get_context("fork").Process(
            target=_holder_main, name=holder,
            args=(holder, shard, token, self.plan[shard], journal_path,
                  header, self.config.shard_engine_config(), control,
                  list(self._control.values())))
        try:
            process.start()
        finally:
            os.close(control)
        self.processes[holder] = process
        self._holds[holder] = (shard, token)

    def _await_exits(self) -> None:
        """Sleep until a holder exits or :data:`POLL_INTERVAL_S` passes."""
        with selectors.DefaultSelector() as selector:
            for process in self.processes.values():
                selector.register(process.sentinel, selectors.EVENT_READ)
            selector.select(POLL_INTERVAL_S)

    def _reap(self) -> None:
        """Turn every holder exit into the end of its lease."""
        for holder, process in list(self.processes.items()):
            exitcode = process.exitcode
            if exitcode is None:
                continue
            process.join()
            del self.processes[holder]
            control = self._control.pop(holder, None)
            if control is not None:
                os.close(control)
            shard, token = self._holds.pop(holder)
            if exitcode == 0:
                self.table.complete(shard, token)
                self._journal.append({"type": "lease_completed",
                                      "shard": shard, "token": token})
            elif exitcode == PAUSED_EXIT:
                # an interruption: release the lease so a resume
                # re-grants it
                self.table.expire(shard, "drained (paused)")
                self._journal.append({"type": "lease_paused",
                                      "shard": shard, "token": token})
                self._paused_shards.add(shard)
            else:
                reason = f"holder {holder} exited with code {exitcode}"
                self.table.expire(shard, reason)
                self._journal.append({
                    "type": "lease_expired", "shard": shard,
                    "token": token, "reason": reason})

    def _stop_holders(self) -> None:
        """Kill and reap the holders an error left running."""
        for control in self._control.values():
            os.close(control)
        self._control.clear()
        for process in self.processes.values():
            process.kill()
        for process in self.processes.values():
            process.join()
        self.processes.clear()
        self._holds.clear()

    # -- drain -------------------------------------------------------------

    def _set_drain(self) -> None:
        """Write the drain reason to every holder and close its pipe."""
        reason = self._drain_requested.encode("utf-8")
        for control in self._control.values():
            try:
                os.write(control, reason)
            except BrokenPipeError:
                pass  # the holder already exited; the reaper sees it
            os.close(control)
        self._control.clear()


def run_fabric_campaign(units: Sequence[WorkUnit], fabric_dir: str,
                        config: Optional[FabricConfig] = None
                        ) -> FabricReport:
    """Run (or resume) one sharded campaign under ``fabric_dir``.

    Rerunning with the same directory and the same units resumes:
    completed shards stay completed, interrupted leases are re-granted
    under fresh fencing tokens, and the merged report is byte-identical
    to an undisturbed same-seed run.
    """
    return CampaignFabric(units, fabric_dir, config).run()
