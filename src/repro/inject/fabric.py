"""Fault-tolerant distributed campaign fabric (leased shards, one coordinator).

The paper's coverage numbers rest on statistically large injection
campaigns; one host's supervised engine tops out near a few thousand
trials per second.  The fabric generalizes the engine/supervisor/journal
stack from a subprocess pool to a *sharded fleet* that survives holder
loss and coordinator restart without corrupting a single tally.

**Leased shards.**  The campaign is split into deterministic work-unit
shards (:func:`partition_units` round-robins distinct units;
:func:`replicate_units` clones every unit per shard with disjoint seed
ranges via :func:`~repro.inject.engine.shard_work_unit`).  A shard only
ever runs under a *lease* (:mod:`repro.inject.lease`): a TTL renewed by
heartbeat messages, and a fencing token.  Leases whose heartbeats stop
advancing are expired and — with ``steal=True`` — re-granted to a fresh
holder whose journal is rebased from every prior holder's durable
records; a completion carrying a superseded token is rejected, so
duplicated execution can never double-count.

**One coordinator, two deployments.**  Leases, the coordinator journal,
the global Wilson early-stop and the deterministic merge all live in
:class:`~repro.inject.coordinator.CoordinatorService`.  Holders are
:class:`~repro.inject.worker.ShardWorker` processes speaking its frame
protocol.  :class:`CampaignFabric` is the local deployment: the service
plus one forked holder per planned shard, each on a
``socket.socketpair()``.  ``examples/fabric_service.py`` is the socket
deployment, with holders attaching from anywhere.  Both write the same
``fabric_dir`` and the same ``merged_report.json`` bytes, and either
can resume the other's directory.
"""

from __future__ import annotations

import os
import signal as _signal
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import FabricConfigError, FabricError
from repro.inject.engine import (_BATCH_SEED_STRIDE, SHARD_SEED_STRIDE,
                                 EngineConfig, WilsonEstimate, WorkUnit,
                                 shard_work_unit)
from repro.inject.merge import MergedCampaign
from repro.inject.supervisor import DRAIN_SIGNALS

#: a lease TTL must clear the heartbeat interval by at least this factor
#: so a single delayed/dropped beat (scheduler hiccup, chaos transport)
#: cannot expire a healthy holder
LEASE_TTL_SAFETY_FACTOR = 4.0


def partition_units(units: Sequence[WorkUnit],
                    shards: int) -> List[List[WorkUnit]]:
    """Round-robin distinct units across ``shards`` buckets (in order)."""
    if shards < 1:
        raise FabricError(f"shards must be >= 1, got {shards}")
    buckets: List[List[WorkUnit]] = [[] for _ in range(shards)]
    for index, unit in enumerate(units):
        buckets[index % shards].append(unit)
    return buckets


def replicate_units(units: Sequence[WorkUnit],
                    shards: int) -> List[List[WorkUnit]]:
    """Clone every unit onto every shard with disjoint seed ranges.

    The scale-out shape: ``shards`` deterministic samples of the same
    campaign, which the coordinator's *global* Wilson estimator reduces
    as one proportion.
    """
    if shards < 1:
        raise FabricError(f"shards must be >= 1, got {shards}")
    return [[shard_work_unit(unit, index, shards) for unit in units]
            for index in range(shards)]


@dataclass
class FabricConfig:
    """Policy knobs for one campaign fabric."""

    #: number of leased shards the campaign splits into
    shards: int = 4
    #: how work maps onto shards: "partition" round-robins distinct
    #: units, "replicate" clones every unit per shard with disjoint
    #: deterministic seed ranges
    mode: str = "partition"
    #: lease TTL: a shard whose heartbeat stalls this long is expired
    lease_ttl_s: float = 30.0
    #: how often each holder sends its lease a heartbeat message
    heartbeat_interval_s: float = 0.25
    #: coordinator poll cadence (holders, messages, TTLs, cursors)
    poll_interval_s: float = 0.05
    #: re-grant expired/dead leases to fresh holders (work stealing);
    #: with False a lost lease fails the whole fabric instead
    steal: bool = True
    #: give up on a shard after this many lease grants (poison shards)
    max_lease_attempts: int = 5
    #: drain the whole fleet once the *global* Wilson CI half-width over
    #: all shards' monitored trials drops below this (None disables)
    global_ci_half_width: Optional[float] = None
    #: never globally early-stop before this many monitored trials
    global_min_trials: int = 50
    #: z-score of the global confidence level (1.96 = 95%)
    z: float = 1.96
    #: per-shard engine configuration; None = engine defaults with
    #: per-unit early stopping disabled (the global estimator governs)
    engine: Optional[EngineConfig] = None
    #: hook SIGTERM/SIGINT on the coordinator into a fleet-wide drain
    install_signal_handlers: bool = True

    def __post_init__(self):
        if self.shards < 1:
            raise FabricConfigError(
                f"shards must be >= 1, got {self.shards}")
        if self.mode not in ("partition", "replicate"):
            raise FabricConfigError(
                f"mode must be 'partition' or 'replicate', got "
                f"{self.mode!r}")
        if self.lease_ttl_s <= 0:
            # With steal=True a non-positive TTL would expire (and
            # self-steal) every live shard on the first poll; refuse the
            # configuration outright rather than thrash leases.
            raise FabricConfigError(
                f"lease_ttl_s must be positive, got {self.lease_ttl_s}"
                + (" (stealing with a non-positive TTL would self-steal "
                   "live shards)" if self.steal else ""))
        if self.heartbeat_interval_s <= 0:
            raise FabricConfigError(
                f"heartbeat_interval_s must be positive, got "
                f"{self.heartbeat_interval_s}")
        if self.lease_ttl_s < \
                LEASE_TTL_SAFETY_FACTOR * self.heartbeat_interval_s:
            raise FabricConfigError(
                f"lease_ttl_s ({self.lease_ttl_s}) must be at least "
                f"{LEASE_TTL_SAFETY_FACTOR:g}x heartbeat_interval_s "
                f"({self.heartbeat_interval_s}): a TTL that a single "
                f"missed beat can lapse turns every scheduler hiccup "
                f"into a lease steal")
        if self.max_lease_attempts < 1:
            raise FabricConfigError(
                f"max_lease_attempts must be >= 1, got "
                f"{self.max_lease_attempts}")
        if self.global_ci_half_width is not None and \
                self.global_ci_half_width <= 0:
            raise FabricConfigError(
                f"global_ci_half_width must be positive (or None), got "
                f"{self.global_ci_half_width}")
        if self.z <= 0:
            raise FabricConfigError(f"z must be positive, got {self.z}")
        max_batches = self.shard_engine_config().max_batches
        if self.mode == "replicate" and \
                max_batches * _BATCH_SEED_STRIDE > SHARD_SEED_STRIDE:
            raise FabricConfigError(
                f"replicate mode allows at most "
                f"{SHARD_SEED_STRIDE // _BATCH_SEED_STRIDE} batches per "
                f"unit, got max_batches={max_batches}: more would reuse "
                f"the next shard's batch seeds")

    def shard_engine_config(self) -> EngineConfig:
        """The per-shard engine config (global estimator governs stops)."""
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
    #: True when the global Wilson early-stop drained the fleet
    stopped_globally: bool
    #: True when a drain left work unfinished; rerun the same fabric_dir
    #: (resume) to finish it
    paused: bool
    #: the fleet-wide Wilson estimate over every shard's trials
    estimate: WilsonEstimate

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
    merged reports byte-identical across runs and deployments.
    """
    ids = [unit.unit_id for unit in units]
    if len(set(ids)) != len(ids):
        raise FabricError(f"duplicate unit ids in campaign: {ids}")
    splitter = partition_units if config.mode == "partition" \
        else replicate_units
    buckets = splitter(units, config.shards)
    plan = {_shard_id(index): bucket
            for index, bucket in enumerate(buckets) if bucket}
    if not plan:
        raise FabricError("the campaign has no work units to shard")
    return plan


class CampaignFabric:
    """The local deployment: one coordinator plus forked shard holders.

    A :class:`~repro.inject.coordinator.CoordinatorService` whose
    listener (:class:`~repro.inject.worker.LocalHolders`) forks one
    :class:`~repro.inject.worker.ShardWorker` holder per planned shard
    and re-forks any holder that dies.  All durable state lives under
    ``fabric_dir``:

    * ``coordinator.jsonl`` — the coordinator's own CRC+rix journal
      (shard plan, every lease transition, the global stop, the final
      ``fabric_done``);
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
        # coordinator and worker build on this module's vocabulary
        from repro.inject.coordinator import CoordinatorService
        from repro.inject.worker import LocalHolders

        self.config = config if config is not None else FabricConfig()
        self.fabric_dir = fabric_dir
        self.service = CoordinatorService(fabric_dir, self.config)
        self.service.submit(units)
        self.service.listener = LocalHolders(len(self.service.plan))
        #: holder id -> forked holder process
        self.processes: Dict[str, Any] = self.service.listener.processes

    def request_drain(self, reason: str = "drain requested") -> None:
        """Drain the fleet: every holder pauses at its next safe point."""
        self.service.request_drain(reason)

    def _handle_signal(self, signum, frame) -> None:
        self.request_drain(f"signal {_signal.Signals(signum).name}")

    def run(self) -> FabricReport:
        """Serve every shard to completion (or drain), then merge."""
        previous: Dict[int, Any] = {}
        if self.config.install_signal_handlers:
            try:
                for signum in DRAIN_SIGNALS:
                    previous[signum] = _signal.signal(
                        signum, self._handle_signal)
            except ValueError:
                # Off the main thread CPython forbids signal(); callers
                # can still request_drain() programmatically.
                pass
        try:
            return self.service.serve()
        finally:
            self.service.listener.close()
            for signum, handler in previous.items():
                _signal.signal(signum, handler)


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
