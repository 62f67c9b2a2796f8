"""Tests for lease lifecycle, fencing tokens, replay, and rebase."""

import json

import pytest

from repro.errors import FabricError, LeaseExpired, StaleFencingToken
from repro.inject.journal import Journal, JournalState
from repro.inject.lease import LeaseTable, rebase_journal


class TestLeaseTable:
    def test_grant_increments_fencing_token(self):
        table = LeaseTable()
        assert table.token("shard-000") == 0
        first = table.grant("shard-000")
        assert first.token == 1 and first.active
        table.expire("shard-000", "holder died")
        second = table.grant("shard-000")
        assert second.token == 2
        assert table.token("shard-000") == 2

    def test_stale_token_cannot_complete(self):
        # the fencing rule: a superseded holder finishing late is refused
        table = LeaseTable()
        old = table.grant("shard-000")
        table.expire("shard-000", "holder exited with code -9")
        new = table.grant("shard-000")
        with pytest.raises(StaleFencingToken, match="superseded"):
            table.complete("shard-000", old.token)
        table.complete("shard-000", new.token)
        assert table.completed("shard-000")

    def test_expired_lease_cannot_complete(self):
        table = LeaseTable()
        lease = table.grant("shard-000")
        table.expire("shard-000", "holder exited with code 1")
        with pytest.raises(LeaseExpired, match="exited with code 1"):
            table.complete("shard-000", lease.token)

    def test_completed_shard_cannot_be_regranted_or_expired(self):
        table = LeaseTable()
        lease = table.grant("shard-000")
        table.complete("shard-000", lease.token)
        with pytest.raises(FabricError, match="refusing to re-grant"):
            table.grant("shard-000")
        with pytest.raises(FabricError, match="already completed"):
            table.expire("shard-000")

    def test_grant_over_active_lease_expires_it(self):
        table = LeaseTable()
        old = table.grant("shard-000")
        new = table.grant("shard-000")
        assert not old.active and old.reason == "superseded by re-grant"
        assert new.active and new.token == old.token + 1

    def test_unknown_shard_operations_fail_loudly(self):
        table = LeaseTable()
        with pytest.raises(FabricError, match="no lease was ever granted"):
            table.complete("shard-404", 1)
        with pytest.raises(FabricError, match="no lease was ever granted"):
            table.expire("shard-404")


class TestReplay:
    def test_replayed_active_lease_loads_expired(self):
        # a restarted coordinator never trusts a holder it did not
        # fork: in-flight leases are re-granted under token+1 (grants
        # journaled with the old lease TTL, ttl_s, replay the same way)
        table = LeaseTable()
        table.apply_record({"type": "lease_granted", "shard": "shard-000",
                            "token": 3, "ttl_s": 5.0})
        lease = table.current("shard-000")
        assert not lease.active and lease.reason == "coordinator restart"
        assert table.token("shard-000") == 3
        assert table.grant("shard-000").token == 4

    def test_replayed_completion_sticks(self):
        table = LeaseTable()
        table.apply_record({"type": "lease_granted", "shard": "shard-000",
                            "token": 2, "ttl_s": 5.0})
        table.apply_record({"type": "lease_completed",
                            "shard": "shard-000", "token": 2})
        assert table.completed("shard-000")

    def test_replayed_pause_allows_regrant(self):
        table = LeaseTable()
        table.apply_record({"type": "lease_granted", "shard": "shard-000",
                            "token": 1, "ttl_s": 5.0})
        table.apply_record({"type": "lease_paused", "shard": "shard-000",
                            "token": 1})
        lease = table.current("shard-000")
        assert not lease.active and lease.reason == "paused"
        assert table.grant("shard-000").token == 2

    def test_replayed_paused_completion_allows_regrant(self):
        # coordinators that ran the fleet-wide early stop completed a
        # drained lease with paused: true; it replays as a pause
        table = LeaseTable()
        table.apply_record({"type": "lease_granted", "shard": "shard-000",
                            "token": 1})
        table.apply_record({"type": "lease_completed",
                            "shard": "shard-000", "token": 1,
                            "paused": True})
        assert not table.completed("shard-000")
        assert table.current("shard-000").reason == "paused"
        assert table.grant("shard-000").token == 2


class TestRebase:
    def _journal(self, path, header, records):
        journal = Journal(str(path), header=header)
        for record in records:
            journal.append(dict(record))
        journal.close()

    def test_rebase_carries_batches_first_wins(self, tmp_path):
        batch = {"type": "batch", "unit": "u0", "index": 0, "trials": 4,
                 "successes": 1, "counts": {"detected": 1, "masked": 3}}
        self._journal(tmp_path / "a.jsonl", {"shard": "s", "token": 1},
                      [{"type": "unit_started", "unit": "u0",
                        "kind": "toy", "params": {"seed": 0}}, batch,
                       {"type": "campaign_paused", "reason": "killed"}])
        self._journal(tmp_path / "b.jsonl", {"shard": "s", "token": 2},
                      [{"type": "unit_started", "unit": "u0",
                        "kind": "toy", "params": {"seed": 0}}, batch])
        dest = tmp_path / "c.jsonl"
        carried = rebase_journal(
            [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")],
            str(dest), header={"shard": "s", "token": 3})
        assert carried == 2  # unit_started + batch, deduped, no pauses
        state = JournalState.load(str(dest))
        assert state.header["token"] == 3
        assert [r["index"] for r in state.batches["u0"]] == [0]
        assert state.pauses == []

    def test_rebase_survives_torn_source_tail(self, tmp_path):
        batch = {"type": "batch", "unit": "u0", "index": 0, "trials": 4,
                 "successes": 1, "counts": {"detected": 1}}
        source = tmp_path / "a.jsonl"
        self._journal(source, {"shard": "s", "token": 1},
                      [{"type": "unit_started", "unit": "u0",
                        "kind": "toy", "params": {}}, batch])
        with open(source, "a") as handle:
            handle.write('{"type": "batch", "unit": "u0", "ind')  # torn
        dest = tmp_path / "b.jsonl"
        carried = rebase_journal([str(source)], str(dest),
                                 header={"shard": "s", "token": 2})
        assert carried == 2
        state = JournalState.load(str(dest))
        assert state.corrupt_lines == 0  # fresh CRC/rix chain

    def test_rebase_with_no_sources_writes_header_only(self, tmp_path):
        dest = tmp_path / "fresh.jsonl"
        carried = rebase_journal([str(tmp_path / "ghost.jsonl")],
                                 str(dest), header={"shard": "s",
                                                    "token": 1})
        assert carried == 0
        with open(dest) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["shard"] == "s"
