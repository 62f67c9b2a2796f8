"""Shard holders for the campaign coordinator.

A :class:`ShardWorker` *dials* a :mod:`repro.inject.transport` endpoint,
attaches to the :class:`~repro.inject.coordinator.CoordinatorService`,
and runs whatever shard it is granted under the supervised
:class:`~repro.inject.engine.CampaignEngine` — one lease journal per
grant, drained by the coordinator's ``drain`` messages.  Socket
deployments start workers by hand; the local fabric's
:class:`LocalHolders` listener forks one per planned shard over a
``socket.socketpair()``.

Chaos-hardening lives here, not in the engine:

* **Reconnect with capped, jittered backoff.**  Every dial failure or
  dropped connection retries through the engine's own
  :func:`~repro.inject.engine._retry_delay` curve (``backoff_s``
  doubling to ``backoff_max_s``, jitter a pure function of
  ``(seed, attempt)``), so a fleet of workers losing the same
  coordinator desynchronizes its reconnect storm deterministically.
* **Fencing re-validation after every reconnect.**  A worker that comes
  back mid-shard sends ``reattach`` with its shard + token; only an
  ``ok`` resumes streaming.  A ``reject`` means the lease was stolen
  while it was gone — the worker abandons the shard (drains its engine
  at the next safe point and never sends a completion), exactly the
  zombie the fencing rule exists for.
* **Resume from its own journal.**  The engine replays the lease
  journal before running, so a reconnect-resume (or a re-grant of the
  same shard to this worker under a fresh token, rebased from its prior
  journal) redoes no completed batch.

The worker also leaves a durable trace of its connection history in the
lease journal: a ``worker_attached`` record (with its pid and the dial
attempt count that grant cost) before the engine starts, and a
``worker_detached`` record (with cumulative reconnect attempts) after it
stops.  Both are ignored by replay/rebase/merge — forensic, not
load-bearing.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import (FabricConfigError, FrameError, TransportClosed,
                          TransportError)
from repro.inject.coordinator import unwire_unit
from repro.inject.engine import (CampaignEngine, EngineConfig, _retry_delay)
from repro.inject.journal import Journal
from repro.inject.supervisor import CampaignSupervisor, SupervisorConfig
from repro.inject.transport import Connection, _SocketConnection


@dataclass
class WorkerConfig:
    """Policy knobs for one attachable shard worker."""

    #: deterministic jitter seed for the reconnect backoff curve
    seed: int = 0
    #: first reconnect delay; doubles per attempt (engine retry curve)
    backoff_s: float = 0.05
    #: backoff saturation — no reconnect ever waits longer than this
    backoff_max_s: float = 2.0
    #: give up on the coordinator after this many consecutive failed
    #: dial-or-reattach attempts
    max_reconnect_attempts: int = 5
    #: how long to wait for a reply before resending a request
    request_timeout_s: float = 2.0
    #: resend a request this many times before treating the connection
    #: as lost (at-least-once delivery against frame drops)
    max_request_resends: int = 3
    #: pump-thread poll cadence (inbound frames)
    poll_interval_s: float = 0.05
    #: supervisor policy for the engine runs (None = defaults)
    supervisor: Optional[SupervisorConfig] = None

    def __post_init__(self):
        if self.backoff_s <= 0 or self.backoff_max_s <= 0:
            raise FabricConfigError(
                f"worker backoff_s/backoff_max_s must be positive, got "
                f"{self.backoff_s}/{self.backoff_max_s}")
        if self.max_reconnect_attempts < 1:
            raise FabricConfigError(
                f"max_reconnect_attempts must be >= 1, got "
                f"{self.max_reconnect_attempts}")
        if self.request_timeout_s <= 0:
            raise FabricConfigError(
                f"request_timeout_s must be positive, got "
                f"{self.request_timeout_s}")
        if self.max_request_resends < 1:
            raise FabricConfigError(
                f"max_request_resends must be >= 1, got "
                f"{self.max_request_resends}")


@dataclass
class WorkerReport:
    """What one worker did before detaching."""

    worker_id: str
    #: one entry per grant handled: shard, token, outcome
    #: ("completed" / "paused" / "abandoned" / "rejected" / "lost")
    shards: List[Dict[str, Any]] = field(default_factory=list)
    #: cumulative dial attempts across the worker's lifetime
    reconnect_attempts: int = 0
    #: why the worker stopped attaching
    reason: str = ""
    #: True when the worker stopped with shard work left unfinished
    paused: bool = False


class ShardWorker:
    """One attachable lease holder: dial, attach, run, complete, repeat.

    ``dial`` is any zero-argument callable returning a
    :class:`~repro.inject.transport.Connection` — ``transport.connect``
    for the in-process transport, ``lambda: unix_connect(path)`` for a
    socket, or a :class:`~repro.inject.transport.ChaosDialer` wrapping
    either in the chaos tests.
    """

    def __init__(self, dial: Callable[[], Any], worker_id: str = "worker-0",
                 config: Optional[WorkerConfig] = None):
        self.dial = dial
        self.worker_id = worker_id
        self.config = config if config is not None else WorkerConfig()
        self._conn = None
        self._nonces = itertools.count(1)
        #: cumulative dial attempts (surfaced in worker_detached records
        #: and the final WorkerReport)
        self.reconnect_attempts = 0
        #: dial attempts the most recent successful connection cost
        self._last_connect_attempts = 0

    # -- connection management ---------------------------------------------

    def _nonce(self) -> str:
        return f"{self.worker_id}:{next(self._nonces)}"

    def _sleep_backoff(self, attempt: int) -> None:
        time.sleep(_retry_delay(self.config, self.config.seed, attempt))

    def _connect_with_backoff(self) -> bool:
        """(Re)dial the coordinator; False when attempts are exhausted."""
        if self._conn is not None and not self._conn.closed:
            return True
        for attempt in range(1, self.config.max_reconnect_attempts + 1):
            self.reconnect_attempts += 1
            if attempt > 1:
                self._sleep_backoff(attempt - 1)
            try:
                self._conn = self.dial()
                self._last_connect_attempts = attempt
                return True
            except (TransportError, OSError):
                self._conn = None
        return False

    def _request(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Send a request at-least-once and await its reply.

        Each resend carries a fresh ``req`` nonce and only a reply
        echoing the *current* nonce (or a broadcast ``done``/``drain``,
        which ends the conversation regardless) is accepted — stale
        replies to earlier resends are discarded.  Returns ``None``
        when the connection died or every resend went unanswered.
        """
        if self._conn is None or self._conn.closed:
            return None
        for _ in range(self.config.max_request_resends):
            req = self._nonce()
            framed = dict(message)
            framed["req"] = req
            try:
                self._conn.send(framed)
            except (TransportClosed, FrameError):
                return None
            deadline = time.monotonic() + self.config.request_timeout_s
            while time.monotonic() < deadline:
                try:
                    reply = self._conn.recv(
                        timeout=self.config.poll_interval_s)
                except (TransportClosed, FrameError):
                    return None
                if reply is None:
                    continue
                kind = reply.get("type")
                if kind in ("done", "drain"):
                    return reply
                if reply.get("re") == req:
                    return reply
                # a reply to a superseded resend, or an unsolicited
                # frame (late ok/reject): drop and keep waiting
        return None

    # -- main loop ---------------------------------------------------------

    def run(self) -> WorkerReport:
        """Attach and run granted shards until the coordinator is done."""
        report = WorkerReport(worker_id=self.worker_id)
        unanswered = 0
        try:
            while True:
                if not self._connect_with_backoff():
                    report.reason = "coordinator unreachable"
                    report.paused = bool(self._open_outcomes(report))
                    break
                reply = self._request({"type": "attach",
                                       "worker": self.worker_id})
                if reply is None:
                    # dialable but mute (e.g. a coordinator that exited
                    # between our dial and our attach): bounded retries,
                    # not an infinite re-dial loop
                    unanswered += 1
                    if self._conn is not None:
                        try:
                            self._conn.close()
                        except OSError:
                            pass
                        self._conn = None
                    if unanswered > self.config.max_reconnect_attempts:
                        report.reason = "coordinator unresponsive"
                        report.paused = bool(self._open_outcomes(report))
                        break
                    continue
                unanswered = 0
                kind = reply.get("type")
                if kind == "done":
                    report.reason = reply.get("reason", "job done")
                    break
                if kind == "drain":
                    report.reason = reply.get("reason", "fleet drain")
                    report.paused = True
                    break
                if kind == "wait":
                    time.sleep(float(reply.get(
                        "retry_s", self.config.poll_interval_s)))
                    continue
                if kind != "grant":
                    continue
                outcome, drain_reason = self._run_shard(reply)
                report.shards.append({
                    "shard": reply.get("shard"),
                    "token": int(reply.get("token", 0)),
                    "outcome": outcome})
                if outcome == "lost":
                    report.reason = drain_reason or "coordinator lost"
                    report.paused = True
                    break
                if outcome == "paused":
                    report.reason = drain_reason or "fleet drain"
                    report.paused = True
                    break
        finally:
            self._goodbye()
        report.reconnect_attempts = self.reconnect_attempts
        return report

    @staticmethod
    def _open_outcomes(report: WorkerReport) -> List[Dict[str, Any]]:
        return [entry for entry in report.shards
                if entry["outcome"] not in ("completed",)]

    def _goodbye(self) -> None:
        if self._conn is None:
            return
        try:
            self._conn.send({"type": "goodbye",
                             "worker": self.worker_id})
        except (TransportClosed, FrameError, OSError):
            pass
        try:
            self._conn.close()
        except OSError:
            pass
        self._conn = None

    # -- one granted shard -------------------------------------------------

    def _run_shard(self, grant: Dict[str, Any]):
        """Run one granted shard to its terminal outcome.

        Returns ``(outcome, drain_reason)`` where outcome is
        ``completed`` (the coordinator acknowledged the completion) /
        ``paused`` (a coordinator drain stopped it) / ``abandoned``
        (lease lost to a steal, or the job ended without acknowledging
        this shard's completion) / ``rejected`` (completion refused by
        the fencing gate) / ``lost`` (coordinator unreachable).
        """
        shard = grant["shard"]
        token = int(grant["token"])
        journal_path = grant["journal"]
        header = dict(grant.get("header") or {})
        units = [unwire_unit(encoded) for encoded in grant["units"]]
        engine_config = EngineConfig(**dict(grant["engine"]))
        interval = float(grant["heartbeat_interval_s"])
        # durable connection forensics: which worker ran this lease and
        # how many dial attempts the grant cost (ignored by replay,
        # rebase, and merge — the records are not in their vocabulary)
        journal = Journal(journal_path, header=header)
        journal.append({"type": "worker_attached",
                        "worker": self.worker_id, "shard": shard,
                        "token": token, "pid": os.getpid(),
                        "attempts": self._last_connect_attempts})
        journal.close()
        supervisor = CampaignSupervisor(
            self.config.supervisor if self.config.supervisor is not None
            else SupervisorConfig(install_signal_handlers=False))
        state = {"drain": None, "lost": False, "stop": False,
                 "supervisor": supervisor}
        engine = CampaignEngine(engine_config, supervisor=supervisor)
        pump = threading.Thread(
            target=self._pump, name=f"{self.worker_id}-pump",
            args=(shard, token, interval, state), daemon=True)
        pump.start()
        try:
            with supervisor:
                engine_report = engine.run(units, journal_path,
                                           journal_header=header)
        finally:
            state["stop"] = True
            pump.join(timeout=30.0)
        journal = Journal(journal_path, header=header)
        journal.append({"type": "worker_detached",
                        "worker": self.worker_id, "shard": shard,
                        "token": token,
                        "reconnects": self.reconnect_attempts})
        journal.close()
        if state["lost"]:
            # Fencing told us mid-run that the lease is gone: the shard
            # belongs to someone else now.  Every durable batch stays in
            # our journal for the thief's rebase; claiming completion
            # would only be rejected.
            return "abandoned", state["drain"]
        reply = self._request({"type": "complete", "shard": shard,
                               "token": token,
                               "paused": bool(engine_report.paused)})
        if reply is None:
            # one full reconnect cycle before giving the shard up
            if self._conn is not None:
                try:
                    self._conn.close()
                except OSError:
                    pass
                self._conn = None
            if self._connect_with_backoff():
                reply = self._request({"type": "complete", "shard": shard,
                                       "token": token,
                                       "paused": bool(
                                           engine_report.paused)})
        if reply is None:
            return "lost", state["drain"]
        kind = reply.get("type")
        if kind == "reject":
            return "rejected", state["drain"]
        if kind in ("done", "drain"):
            # The job ended before (or instead of) acknowledging this
            # completion — e.g. the lease was silently stolen while we
            # were partitioned and the thief finished the job.  Whether
            # our batches were credited is the merge's business; only a
            # coordinator-acknowledged ``ok`` may claim "completed".
            state["drain"] = state["drain"] or reply.get("reason") or kind
            return "abandoned", state["drain"]
        if engine_report.paused:
            return "paused", state["drain"]
        return "completed", state["drain"]

    # -- the pump thread ---------------------------------------------------

    @staticmethod
    def _drain(state: Dict[str, Any], reason: str,
               lost: bool = False) -> None:
        """Record why the shard stops; its engine drains at a safe point."""
        state["drain"] = reason
        state["lost"] = state["lost"] or lost
        state["supervisor"].request_drain(reason)

    def _pump(self, shard: str, token: int, interval: float,
              state: Dict[str, Any]) -> None:
        """Heartbeats out, drain/reject in — while the engine runs in
        the main thread.

        Owns ``self._conn`` for the duration: on a torn connection it
        re-dials with capped backoff and **re-validates the fencing
        token** with a ``reattach`` before resuming; a rejection flips
        ``state['lost']`` and drains the engine at its next safe point.
        """
        beat = 0
        next_beat = 0.0
        while not state["stop"]:
            now = time.monotonic()
            try:
                if now >= next_beat:
                    beat += 1
                    self._conn.send({"type": "heartbeat", "shard": shard,
                                     "token": token, "beat": beat})
                    next_beat = now + interval
                message = self._conn.recv(
                    timeout=min(interval, self.config.poll_interval_s))
            except (TransportClosed, FrameError):
                if not self._reestablish(shard, token, state):
                    return
                continue
            if message is None:
                continue
            kind = message.get("type")
            if kind == "drain":
                self._drain(state, message.get("reason")
                            or "coordinator drain")
            elif kind == "done":
                self._drain(state, message.get("reason") or "job done")
            elif kind == "reject":
                if message.get("shard") == shard and \
                        int(message.get("token", -1)) == token:
                    self._drain(state, f"lease lost: "
                                f"{message.get('reason')}", lost=True)
                    return
            # ok / anything else: ignore

    def _reestablish(self, shard: str, token: int,
                     state: Dict[str, Any]) -> bool:
        """Reconnect mid-shard and re-validate our fencing token."""
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
        for attempt in range(1, self.config.max_reconnect_attempts + 1):
            if state["stop"]:
                return False
            self.reconnect_attempts += 1
            self._sleep_backoff(attempt)
            try:
                conn = self.dial()
            except (TransportError, OSError):
                continue
            req = self._nonce()
            try:
                conn.send({"type": "reattach", "worker": self.worker_id,
                           "shard": shard, "token": token, "req": req})
            except (TransportClosed, FrameError):
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            reply = self._await_reply(conn, req)
            if reply is None:
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            kind = reply.get("type")
            if kind == "ok":
                self._conn = conn
                self._last_connect_attempts = attempt
                return True
            if kind in ("done", "drain"):
                self._drain(state, reply.get("reason") or "fleet drain")
                self._conn = conn
                return True
            if kind == "reject":
                # fencing re-validation failed: the lease was stolen
                # while we were gone — abandon the shard, keep the
                # connection for the next attach
                self._drain(state, f"lease lost: {reply.get('reason')}",
                            lost=True)
                self._conn = conn
                return False
        self._drain(state, "reconnect attempts exhausted", lost=True)
        return False

    def _await_reply(self, conn, req: str) -> Optional[Dict[str, Any]]:
        deadline = time.monotonic() + self.config.request_timeout_s
        while time.monotonic() < deadline:
            try:
                reply = conn.recv(timeout=self.config.poll_interval_s)
            except (TransportClosed, FrameError):
                return None
            if reply is None:
                continue
            if reply.get("type") in ("done", "drain") or \
                    reply.get("re") == req:
                return reply
        return None


class LocalHolders:
    """A listener that forks one :class:`ShardWorker` holder per shard.

    The local fabric's transport.  Each holder is a forked process (so
    it inherits registered unit kinds) talking to the coordinator over
    a ``socket.socketpair()``, so no socket path is involved (``AF_UNIX``
    paths cap at 108 bytes).  :meth:`accept` forks the holders on first
    use, hands out their coordinator ends, reaps holders that exited,
    and forks a replacement for each one that died abnormally.
    :meth:`close` SIGKILLs the holders still alive: once the job is
    served they only sit in ``wait`` sleeps or reconnect backoff.
    """

    def __init__(self, count: int):
        self.count = count
        #: holder id -> forked holder process
        self.processes: Dict[str, Any] = {}
        self._forked = 0
        self._coordinator_ends: List[socket.socket] = []
        self._pending: Deque[Connection] = deque()

    def _fork(self) -> None:
        holder = f"holder-{self._forked:03d}"
        ours, theirs = socket.socketpair()
        self._coordinator_ends.append(ours)
        process = multiprocessing.get_context("fork").Process(
            target=_holder_main, name=holder,
            args=(holder, theirs, list(self._coordinator_ends),
                  self._forked))
        process.start()
        theirs.close()
        self.processes[holder] = process
        self._pending.append(_SocketConnection(ours))
        self._forked += 1

    def accept(self, timeout: Optional[float] = None
               ) -> Optional[Connection]:
        """The next holder's connection, or ``None`` (never blocks)."""
        if not self._forked:
            for _ in range(self.count):
                self._fork()
        for holder, process in list(self.processes.items()):
            if process.is_alive():
                continue
            process.join()
            del self.processes[holder]
            if process.exitcode != 0:
                self._fork()
        return self._pending.popleft() if self._pending else None

    def close(self) -> None:
        for process in self.processes.values():
            if process.is_alive():
                process.kill()
        for process in self.processes.values():
            process.join()
        self.processes.clear()
        while self._pending:
            self._pending.popleft().close()


def _holder_main(holder: str, sock: socket.socket,
                 coordinator_ends: List[socket.socket], seed: int) -> None:
    """Forked holder: one :class:`ShardWorker` on its socketpair end."""
    for end in coordinator_ends:
        # close(), never shutdown(): shutdown acts on the socket the
        # coordinator shares, and a coordinator end left open here
        # would hide a dead coordinator's EOF from its holder
        end.close()
    connections = [_SocketConnection(sock)]

    def dial() -> Connection:
        if not connections:
            raise TransportClosed(f"{holder} cannot redial a socketpair")
        return connections.pop()

    ShardWorker(dial, worker_id=holder,
                config=WorkerConfig(seed=seed,
                                    supervisor=SupervisorConfig())).run()
