"""Work-unit leases with fencing tokens for the campaign fabric.

A *shard* is a fixed, deterministic slice of a campaign (a list of its
work units).  The coordinator never hands a shard to a holder
directly — it grants a **lease**:

* every grant increments the shard's **fencing token**, a monotonic
  per-shard counter that survives coordinator restarts (it is replayed
  from the coordinator journal);
* the coordinator forks one holder process per grant, and the lease
  ends with that holder: a clean exit completes it, a drained exit
  pauses it, and any other exit expires it so the shard may be
  re-granted to a fresh holder (work stealing);
* completions are only honored when they carry the *current* token of
  an *active* lease — anything else raises
  :class:`~repro.errors.StaleFencingToken` (superseded holder) or
  :class:`~repro.errors.LeaseExpired` (the lease ended first).
  Duplicated execution is further defused at the data layer: every
  lease attempt writes its own journal, batch records are pure
  functions of ``(unit params, batch index)``, and the merge dedupes by
  that key — acceptance decides *bookkeeping*, never counts.

:func:`rebase_journal` is the work-stealing data path: it compacts the
surviving records of a shard's previous lease journals into the new
lease's journal (fresh CRC/rix chain, new shard/token header), so the
new holder's engine resumes exactly after the last batch any prior
holder durably completed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import FabricError, LeaseExpired, StaleFencingToken
from repro.inject.journal import Journal, _scan_journal

#: lease lifecycle states
ACTIVE = "active"
EXPIRED = "expired"
COMPLETED = "completed"


@dataclass
class Lease:
    """One grant of one shard to one holder, under one fencing token."""

    shard: str
    token: int
    state: str = ACTIVE
    #: why the lease left the ACTIVE state ("", or an expiry reason)
    reason: str = ""

    @property
    def active(self) -> bool:
        return self.state == ACTIVE


class LeaseTable:
    """The coordinator's authoritative lease + fencing-counter state.

    The table itself is in-memory; crash tolerance comes from the
    coordinator journaling every transition (`grant`/`expire`/`complete`)
    and :meth:`apply_record` replaying those records on resume.  Replayed
    ACTIVE leases are *not* resurrected — a restarted coordinator never
    forked their holders, so every lease that was in flight at the crash
    is deterministically expired and re-granted under a fresh token.
    """

    def __init__(self):
        self._tokens: Dict[str, int] = {}
        self._leases: Dict[str, Lease] = {}

    # -- queries -----------------------------------------------------------

    def current(self, shard: str) -> Optional[Lease]:
        """The newest lease of ``shard`` in any state, if one was granted."""
        return self._leases.get(shard)

    def token(self, shard: str) -> int:
        """The shard's current fencing token (0 = never granted)."""
        return self._tokens.get(shard, 0)

    def completed(self, shard: str) -> bool:
        lease = self._leases.get(shard)
        return lease is not None and lease.state == COMPLETED

    def active_shards(self) -> List[str]:
        return [shard for shard, lease in self._leases.items()
                if lease.active]

    # -- transitions -------------------------------------------------------

    def grant(self, shard: str) -> Lease:
        """Grant ``shard`` under the next fencing token (work stealing).

        Granting over a still-ACTIVE lease is legal, but the old lease
        is first marked expired so only one lease per shard is ever
        active.
        """
        previous = self._leases.get(shard)
        if previous is not None and previous.state == COMPLETED:
            raise FabricError(
                f"shard {shard!r} already completed under token "
                f"{previous.token}; refusing to re-grant finished work")
        if previous is not None and previous.active:
            previous.state = EXPIRED
            previous.reason = previous.reason or "superseded by re-grant"
        token = self._tokens.get(shard, 0) + 1
        self._tokens[shard] = token
        lease = Lease(shard=shard, token=token)
        self._leases[shard] = lease
        return lease

    def expire(self, shard: str, reason: str = "expired") -> Lease:
        """Expire the shard's active lease (its holder exited or drained)."""
        lease = self._leases.get(shard)
        if lease is None:
            raise FabricError(
                f"cannot expire shard {shard!r}: no lease was ever granted")
        if lease.state == COMPLETED:
            raise FabricError(
                f"cannot expire shard {shard!r}: already completed")
        if lease.active:
            lease.state = EXPIRED
            lease.reason = reason
        return lease

    def complete(self, shard: str, token: int) -> Lease:
        """Accept a completion — the one transition fencing really guards."""
        lease = self._leases.get(shard)
        if lease is None:
            raise FabricError(
                f"cannot complete shard {shard!r}: no lease was ever "
                f"granted")
        if token != lease.token:
            raise StaleFencingToken(
                f"cannot complete shard {shard!r} with fencing token "
                f"{token}: current token is {lease.token} (holder was "
                f"superseded)")
        if not lease.active:
            raise LeaseExpired(
                f"cannot complete shard {shard!r}: lease token {token} "
                f"is {lease.state} ({lease.reason or 'expired'})")
        lease.state = COMPLETED
        return lease

    # -- journal replay ----------------------------------------------------

    def apply_record(self, record: Dict[str, Any]) -> None:
        """Replay one coordinator-journal lease record (crash recovery).

        Replayed grants restore the fencing counters; replayed
        completions mark shards done.  A lease that was ACTIVE when the
        journal ends stays EXPIRED-on-load (reason ``coordinator
        restart``): the new coordinator re-grants it under a higher
        token rather than trusting a holder it never forked.  A
        completion journaled with ``paused: true`` (a shard drained by
        the fleet-wide early stop older coordinators ran) replays as a
        pause, so a resume finishes the shard.
        """
        kind = record.get("type")
        shard = record.get("shard")
        token = record.get("token")
        if kind == "lease_completed" and record.get("paused"):
            kind = "lease_paused"
        if kind == "lease_granted":
            lease = Lease(shard=shard, token=token, state=EXPIRED,
                          reason="coordinator restart")
            self._tokens[shard] = max(self._tokens.get(shard, 0), token)
            self._leases[shard] = lease
        elif kind in ("lease_expired", "lease_paused"):
            lease = self._leases.get(shard)
            if lease is not None and lease.state != COMPLETED:
                lease.state = EXPIRED
                lease.reason = record.get("reason", "expired") \
                    if kind == "lease_expired" else "paused"
        elif kind == "lease_completed":
            lease = self._leases.get(shard)
            if lease is not None and token == lease.token:
                lease.state = COMPLETED


#: record types (and their natural first-wins dedup keys) that survive a
#: journal rebase; anything else — pauses, prior headers — is dropped
_REBASE_KEYS = {
    "config": lambda record: ("config",),
    "unit_started": lambda record: ("unit_started", record.get("unit")),
    "batch": lambda record: ("batch", record.get("unit"),
                             record.get("index")),
    "unit_done": lambda record: ("unit_done", record.get("unit")),
    "unit_quarantined": lambda record: ("unit_done", record.get("unit")),
}


def rebase_journal(sources: Sequence[str], dest: str,
                   header: Optional[Dict[str, Any]] = None,
                   fsync: bool = False) -> int:
    """Compact prior lease journals into a new lease's journal.

    Streams every ``sources`` journal in order (oldest lease first) with
    ``salvage`` semantics — a SIGKILLed holder's torn tail or corrupt
    suffix costs only the records after it — keeps the first occurrence
    of each durable record (config, unit_started, batch-by-index,
    terminal unit records), and appends them to ``dest`` under a fresh
    header/CRC/rix chain.  Returns the number of records carried over.

    The new holder's engine then resumes from ``dest`` exactly as if it
    had written those records itself; batches no prior holder durably
    journaled are re-derived from their deterministic seeds.
    """
    import os

    carried: List[Dict[str, Any]] = []
    seen = set()

    def absorb(record: Dict[str, Any]) -> None:
        key_fn = _REBASE_KEYS.get(record.get("type"))
        if key_fn is None:
            return
        key = key_fn(record)
        if key in seen:
            return
        seen.add(key)
        carried.append(dict(record))

    for source in sources:
        if not os.path.exists(source):
            continue
        _scan_journal(source, salvage=True, absorb=absorb)
    journal = Journal(dest, fsync=fsync, header=header)
    try:
        for record in carried:
            journal.append(record)
    finally:
        journal.close()
    return len(carried)
