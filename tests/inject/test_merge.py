"""Tests for the deterministic, idempotent shard-journal merge."""

import itertools
import json

import pytest

from repro.errors import MergeConflict
from repro.inject.engine import wilson_interval
from repro.inject.journal import Journal
from repro.inject.merge import (merge_shard_journals, write_merged_report)


def _shard_journal(path, shard, token, units, paused=False):
    """Write one lease journal: unit_started + batches (+ unit_done)."""
    journal = Journal(str(path), header={"role": "shard", "shard": shard,
                                         "token": token, "shard_count": 2})
    for unit_id, batches, done in units:
        journal.append({"type": "unit_started", "unit": unit_id,
                        "kind": "toy", "params": {"seed": 7}})
        for index, (trials, successes) in enumerate(batches):
            journal.append({
                "type": "batch", "unit": unit_id, "index": index,
                "trials": trials, "successes": successes,
                "counts": {"detected": successes,
                           "masked": trials - successes}})
        if done:
            trials = sum(t for t, _ in batches)
            successes = sum(s for _, s in batches)
            journal.append({
                "type": "unit_done", "unit": unit_id,
                "status": "completed",
                "summary": {"status": "completed",
                            "counts": {"detected": successes,
                                       "masked": trials - successes},
                            "trials": trials, "successes": successes,
                            "batches": len(batches),
                            "stopped_early": False}})
    if paused:
        journal.append({"type": "campaign_paused", "reason": "drain"})
    journal.close()


class TestMergeBasics:
    def test_merges_disjoint_shards(self, tmp_path):
        a = tmp_path / "shard-000.lease-001.jsonl"
        b = tmp_path / "shard-001.lease-001.jsonl"
        _shard_journal(a, "shard-000", 1, [("u0", [(4, 1), (4, 2)], True)])
        _shard_journal(b, "shard-001", 1, [("u1", [(4, 4)], True)])
        merged = merge_shard_journals([str(a), str(b)])
        assert set(merged.report.units) == {"u0", "u1"}
        assert merged.report.units["u0"].trials == 8
        assert merged.report.units["u0"].successes == 3
        assert merged.estimate.trials == 12
        assert merged.estimate.successes == 7
        assert not merged.report.paused

    def test_duplicate_batches_count_once(self, tmp_path):
        # work stealing re-executes; identical duplicates are one batch
        a = tmp_path / "shard-000.lease-001.jsonl"
        b = tmp_path / "shard-000.lease-002.jsonl"
        _shard_journal(a, "shard-000", 1, [("u0", [(4, 1)], False)])
        _shard_journal(b, "shard-000", 2,
                       [("u0", [(4, 1), (4, 2)], True)])
        merged = merge_shard_journals([str(a), str(b)])
        assert merged.report.units["u0"].trials == 8
        assert merged.report.units["u0"].batches == 2

    def test_unfinished_unit_reports_paused(self, tmp_path):
        a = tmp_path / "shard-000.lease-001.jsonl"
        _shard_journal(a, "shard-000", 1, [("u0", [(4, 1)], False)],
                       paused=True)
        merged = merge_shard_journals([str(a)])
        assert merged.report.units["u0"].status == "paused"
        assert merged.report.paused
        assert merged.sources["shard-000"].drained


class TestMergeConflicts:
    def test_contradictory_duplicate_batch_is_refused(self, tmp_path):
        a = tmp_path / "shard-000.lease-001.jsonl"
        b = tmp_path / "shard-000.lease-002.jsonl"
        _shard_journal(a, "shard-000", 1, [("u0", [(4, 1)], False)])
        _shard_journal(b, "shard-000", 2, [("u0", [(4, 3)], False)])
        with pytest.raises(MergeConflict, match="refusing to pick"):
            merge_shard_journals([str(a), str(b)])

    def test_divergent_unit_params_are_refused(self, tmp_path):
        a = tmp_path / "shard-000.lease-001.jsonl"
        b = tmp_path / "shard-001.lease-001.jsonl"
        journal = Journal(str(a), header={"shard": "shard-000", "token": 1})
        journal.append({"type": "unit_started", "unit": "u0",
                        "kind": "toy", "params": {"seed": 1}})
        journal.close()
        journal = Journal(str(b), header={"shard": "shard-001", "token": 1})
        journal.append({"type": "unit_started", "unit": "u0",
                        "kind": "toy", "params": {"seed": 2}})
        journal.close()
        with pytest.raises(MergeConflict, match="divergent"):
            merge_shard_journals([str(a), str(b)])


class TestDeterminism:
    def test_any_permutation_merges_byte_identical(self, tmp_path):
        # the replay-stability property the chaos guarantee rests on:
        # merge is a pure function of the *set* of journals
        paths = []
        for shard in range(3):
            for token in (1, 2):
                path = tmp_path / \
                    f"shard-{shard:03d}.lease-{token:03d}.jsonl"
                _shard_journal(
                    path, f"shard-{shard:03d}", token,
                    [(f"u{shard}", [(4, shard), (4, 1)], token == 2)])
                paths.append(str(path))
        artifacts = set()
        for permutation in itertools.permutations(paths):
            merged = merge_shard_journals(list(permutation))
            out = tmp_path / "report.json"
            artifacts.add(write_merged_report(merged, str(out)))
        assert len(artifacts) == 1

    def test_merging_twice_is_idempotent(self, tmp_path):
        a = tmp_path / "shard-000.lease-001.jsonl"
        _shard_journal(a, "shard-000", 1, [("u0", [(4, 1)], True)])
        first = write_merged_report(
            merge_shard_journals([str(a)]), str(tmp_path / "r1.json"))
        second = write_merged_report(
            merge_shard_journals([str(a), str(a)]),
            str(tmp_path / "r2.json"))
        assert first == second

    def test_artifact_is_canonical_json_with_newline(self, tmp_path):
        a = tmp_path / "shard-000.lease-001.jsonl"
        _shard_journal(a, "shard-000", 1, [("u0", [(4, 1)], True)])
        payload = write_merged_report(
            merge_shard_journals([str(a)]), str(tmp_path / "r.json"))
        assert payload.endswith(b"\n")
        decoded = json.loads(payload)
        recanonical = json.dumps(decoded, sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n"
        assert payload == recanonical
        # provenance never leaks into the artifact
        assert "sources" not in decoded and "tokens" not in payload.decode()

    @pytest.mark.parametrize("paused", [False, True])
    def test_artifact_says_nothing_stopped_fleet_wide(self, tmp_path,
                                                      paused):
        # the key stays, always false, because the sharded-campaign
        # digest hashes these bytes; a drain is not a fleet-wide stop
        a = tmp_path / "shard-000.lease-001.jsonl"
        _shard_journal(a, "shard-000", 1, [("u0", [(4, 1)], not paused)],
                       paused=paused)
        merged = merge_shard_journals([str(a)])
        decoded = json.loads(write_merged_report(merged,
                                                 str(tmp_path / "r.json")))
        assert merged.report.paused is paused
        assert sorted(decoded) == ["estimate", "schema", "stopped_globally",
                                   "totals", "units"]
        assert decoded["stopped_globally"] is False
        assert decoded["units"][0]["stopped_early"] is False

    def test_estimates_are_95_percent_wilson_intervals(self, tmp_path):
        a = tmp_path / "shard-000.lease-001.jsonl"
        b = tmp_path / "shard-001.lease-001.jsonl"
        _shard_journal(a, "shard-000", 1, [("u0", [(40, 9)], True)])
        _shard_journal(b, "shard-001", 1, [("u1", [(30, 30)], True)])
        decoded = json.loads(write_merged_report(
            merge_shard_journals([str(a), str(b)]),
            str(tmp_path / "r.json")))
        estimates = [(entry["estimate"], entry["successes"],
                      entry["trials"]) for entry in decoded["units"]]
        estimates.append((decoded["estimate"], 39, 70))
        for estimate, successes, trials in estimates:
            want = wilson_interval(successes, trials, z=1.96)
            assert estimate == {"rate": want.rate, "low": want.low,
                                "high": want.high, "trials": trials,
                                "successes": successes}

    def test_torn_tail_costs_only_the_tail(self, tmp_path):
        a = tmp_path / "shard-000.lease-001.jsonl"
        _shard_journal(a, "shard-000", 1, [("u0", [(4, 1)], False)])
        with open(a, "a") as handle:
            handle.write('{"type": "batch", "unit": "u0", "in')
        merged = merge_shard_journals([str(a)])
        assert merged.report.units["u0"].trials == 4
