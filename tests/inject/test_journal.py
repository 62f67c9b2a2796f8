"""Tests for the append-only campaign journal and its replay."""

import json
import os

import pytest

from repro.errors import InjectionError
from repro.inject.journal import Journal, JournalState, NullJournal


def write_journal(path, *records):
    with Journal(str(path)) as journal:
        for record in records:
            journal.append(record)


class TestJournalWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(str(path)) as journal:
            journal.unit_started("u", "gate", {"seed": 1})
            journal.batch("u", 0, trials=10, successes=4,
                          counts={"due": 4, "sdc": 6}, attempts=1)
            journal.unit_done("u", "completed", {"trials": 10})
        state = JournalState.load(str(path))
        assert state.started["u"]["params"] == {"seed": 1}
        assert state.batches["u"][0]["successes"] == 4
        assert state.finished["u"]["status"] == "completed"
        assert state.corrupt_lines == 0

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        Journal(str(path)).close()
        Journal(str(path)).close()  # reopening must not duplicate
        lines = [json.loads(line) for line in open(path)]
        assert [line["type"] for line in lines] == ["campaign"]

    def test_record_needs_type(self, tmp_path):
        with Journal(str(tmp_path / "journal.jsonl")) as journal:
            with pytest.raises(InjectionError):
                journal.append({"unit": "u"})

    def test_null_journal_writes_nothing(self, tmp_path):
        journal = NullJournal()
        journal.unit_started("u", "gate", {})
        journal.close()
        assert journal.path is None

    def test_fsync_called_per_append(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        with Journal(str(tmp_path / "journal.jsonl"), fsync=True) as journal:
            header_syncs = len(synced)
            journal.unit_started("u", "gate", {})
            journal.batch("u", 0, trials=1, successes=1, counts={},
                          attempts=1)
        assert header_syncs == 1  # the campaign header synced too
        assert len(synced) == 3

    def test_fsync_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: pytest.fail("fsync without opting in"))
        with Journal(str(tmp_path / "journal.jsonl")) as journal:
            journal.unit_started("u", "gate", {})


class TestKillDurability:
    def test_kill_during_append_resumes_from_torn_line(self, tmp_path):
        # A kill -9 mid-append leaves every fsynced record intact plus
        # one torn final line; replay must resume after the last
        # complete batch, losing at most the in-flight record.
        path = tmp_path / "journal.jsonl"
        with Journal(str(path), fsync=True) as journal:
            journal.unit_started("u", "gate", {"seed": 1})
            journal.batch("u", 0, trials=4, successes=2, counts={"due": 2},
                          attempts=1)
            journal.batch("u", 1, trials=4, successes=1, counts={"due": 1},
                          attempts=1)
        complete = path.read_bytes()
        torn = json.dumps({"type": "batch", "unit": "u", "index": 2,
                           "trials": 4, "successes": 3,
                           "counts": {"due": 3}, "attempts": 1})
        path.write_bytes(complete + torn[:len(torn) // 2].encode())

        state = JournalState.load(str(path))
        assert state.corrupt_lines == 1
        assert state.next_batch_index("u") == 2  # batch 2 was in flight
        assert sum(batch["trials"] for batch in state.batches["u"]) == 8
        assert "u" not in state.finished


class TestJournalReplay:
    def test_missing_file_is_fresh_state(self, tmp_path):
        state = JournalState.load(str(tmp_path / "nope.jsonl"))
        assert not state.started and not state.finished
        assert state.next_batch_index("anything") == 0

    def test_torn_final_line_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(path, {"type": "unit_started", "unit": "u",
                             "kind": "gate", "params": {}})
        with open(path, "a") as handle:
            handle.write('{"type": "batch", "uni')
        state = JournalState.load(str(path))
        assert "u" in state.started
        assert state.corrupt_lines == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with open(path, "w") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"type": "unit_started", "unit": "u",
                                     "kind": "gate", "params": {}}) + "\n")
        with pytest.raises(InjectionError):
            JournalState.load(str(path))

    def test_duplicate_batch_index_keeps_first(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(
            path,
            {"type": "batch", "unit": "u", "index": 0, "trials": 5,
             "successes": 5, "counts": {}, "attempts": 1},
            {"type": "batch", "unit": "u", "index": 0, "trials": 9,
             "successes": 0, "counts": {}, "attempts": 1})
        state = JournalState.load(str(path))
        assert len(state.batches["u"]) == 1
        assert state.batches["u"][0]["trials"] == 5

    def test_next_batch_index_after_gap_free_prefix(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(
            path,
            {"type": "batch", "unit": "u", "index": 0, "trials": 1,
             "successes": 0, "counts": {}, "attempts": 1},
            {"type": "batch", "unit": "u", "index": 1, "trials": 1,
             "successes": 0, "counts": {}, "attempts": 1})
        assert JournalState.load(str(path)).next_batch_index("u") == 2

    def test_param_check(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(path, {"type": "unit_started", "unit": "u",
                             "kind": "gate", "params": {"seed": 3}})
        state = JournalState.load(str(path))
        state.check_params("u", {"seed": 3})  # fine
        state.check_params("unseen", {"seed": 4})  # unknown unit: fine
        with pytest.raises(InjectionError):
            state.check_params("u", {"seed": 4})

    def test_param_check_tolerates_tuples(self, tmp_path):
        # params journal as JSON, so tuples come back as lists; the
        # check must compare post-round-trip forms.
        path = tmp_path / "journal.jsonl"
        write_journal(path, {"type": "unit_started", "unit": "u",
                             "kind": "gate", "params": {"units": ["a"]}})
        JournalState.load(str(path)).check_params("u", {"units": ("a",)})

    def test_quarantine_and_pause_records_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(str(path)) as journal:
            journal.unit_quarantined(
                "poison", {"trials": 0},
                [{"outcome": "error", "detail": "RuntimeError: boom",
                  "traceback": "Traceback..."}])
            journal.campaign_paused("signal SIGTERM", "u1", ["u2", "u3"])
        state = JournalState.load(str(path))
        assert state.finished["poison"]["status"] == "quarantined"
        assert state.quarantined["poison"]["failures"][0]["detail"] == \
            "RuntimeError: boom"
        assert state.pauses == [state.pauses[0]]
        assert state.pauses[0]["in_flight"] == "u1"
        assert state.pauses[0]["pending"] == ["u2", "u3"]


def _sample_journal(path, batches=4):
    with Journal(str(path)) as journal:
        journal.unit_started("u", "gate", {"seed": 1})
        for index in range(batches):
            journal.batch("u", index, trials=10, successes=index,
                          counts={"due": index, "sdc": 10 - index},
                          attempts=1)


def _flip_line(path, line_number, old, new):
    """Alter one journal line in place (still valid JSON, wrong CRC)."""
    lines = path.read_bytes().split(b"\n")
    target = lines[line_number - 1]
    assert old in target, f"line {line_number} lacks {old!r}"
    lines[line_number - 1] = target.replace(old, new, 1)
    path.write_bytes(b"\n".join(lines))


class TestTamperEvidence:
    def test_records_carry_crc_and_running_index(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _sample_journal(path)
        records = [json.loads(line) for line in open(path)]
        assert [record["rix"] for record in records] == \
            list(range(len(records)))
        assert all(isinstance(record["crc"], int) for record in records)
        assert records[0]["type"] == "campaign"

    def test_flipped_byte_detected_with_location(self, tmp_path):
        """Acceptance: one flipped byte raises, naming the file and line."""
        path = tmp_path / "journal.jsonl"
        _sample_journal(path)
        _flip_line(path, 4, b'"successes": 1', b'"successes": 6')
        with pytest.raises(InjectionError) as excinfo:
            JournalState.load(str(path))
        message = str(excinfo.value)
        assert f"{path}:4" in message
        assert "CRC32" in message
        assert "salvage=True" in message

    def test_flipped_byte_on_final_line_tolerated_as_torn_tail(
            self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _sample_journal(path)
        _flip_line(path, 6, b'"successes": 3', b'"successes": 8')
        state = JournalState.load(str(path))
        assert state.corrupt_lines == 1
        assert state.next_batch_index("u") == 3  # the bad record dropped

    def test_salvage_resumes_from_last_good_record(self, tmp_path):
        """Acceptance: salvage=True keeps the prefix before the bad byte."""
        path = tmp_path / "journal.jsonl"
        _sample_journal(path)
        _flip_line(path, 4, b'"successes": 1', b'"successes": 6')
        state = JournalState.load(str(path), salvage=True)
        assert state.salvaged_line == 4
        assert state.corrupt_lines == 1
        # only batch 0 (line 3) survives; everything at and after the
        # flipped line is re-derived from its deterministic seed later
        assert state.next_batch_index("u") == 1
        assert "u" in state.started

    def test_salvage_writer_truncates_file_at_bad_record(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _sample_journal(path)
        _flip_line(path, 4, b'"successes": 1', b'"successes": 6')
        with Journal(str(path), salvage=True) as journal:
            journal.batch("u", 1, trials=10, successes=1,
                          counts={"due": 1, "sdc": 9}, attempts=1)
        state = JournalState.load(str(path))  # strict load passes again
        assert state.corrupt_lines == 0
        records = [json.loads(line) for line in open(path)]
        assert [record["rix"] for record in records] == \
            list(range(len(records)))

    def test_dropped_record_detected_by_index_gap(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _sample_journal(path)
        lines = path.read_bytes().split(b"\n")
        del lines[2]  # excise batch 0: later rix values now jump
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(InjectionError) as excinfo:
            JournalState.load(str(path))
        assert "dropped or spliced" in str(excinfo.value)

    def test_legacy_records_without_crc_still_load(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with open(path, "w") as handle:
            handle.write('{"type": "campaign", "version": 1}\n')
            handle.write('{"type": "unit_started", "unit": "u", '
                         '"kind": "gate", "params": {}}\n')
        state = JournalState.load(str(path))
        assert "u" in state.started
        assert state.corrupt_lines == 0


class TestWriterValidation:
    def test_version_mismatch_refused_on_append(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with open(path, "w") as handle:
            handle.write('{"type": "campaign", "version": 99}\n')
        with pytest.raises(InjectionError) as excinfo:
            Journal(str(path))
        message = str(excinfo.value)
        assert "99" in message and "refusing to append" in message

    def test_non_campaign_file_refused_on_append(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with open(path, "w") as handle:
            handle.write('{"type": "batch", "unit": "u", "index": 0, '
                         '"trials": 1, "successes": 0, "counts": {}, '
                         '"attempts": 1}\n')
        with pytest.raises(InjectionError) as excinfo:
            Journal(str(path))
        assert "not a campaign journal" in str(excinfo.value)

    def test_corrupt_journal_refused_on_append_without_salvage(
            self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _sample_journal(path)
        _flip_line(path, 4, b'"successes": 1', b'"successes": 6')
        with pytest.raises(InjectionError):
            Journal(str(path))

    def test_torn_tail_truncated_before_append(self, tmp_path):
        # Appending after a torn final line must not merge the new
        # record into the garbage: the writer truncates the tail first.
        path = tmp_path / "journal.jsonl"
        _sample_journal(path, batches=2)
        with open(path, "ab") as handle:
            handle.write(b'{"type": "batch", "uni')
        with Journal(str(path)) as journal:
            journal.batch("u", 2, trials=10, successes=5,
                          counts={"due": 5, "sdc": 5}, attempts=1)
        state = JournalState.load(str(path))
        assert state.corrupt_lines == 0
        assert state.next_batch_index("u") == 3

    def test_missing_final_newline_repaired_before_append(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _sample_journal(path, batches=1)
        content = path.read_bytes()
        path.write_bytes(content.rstrip(b"\n"))  # e.g. partial flush
        with Journal(str(path)) as journal:
            journal.batch("u", 1, trials=10, successes=2,
                          counts={"due": 2, "sdc": 8}, attempts=1)
        state = JournalState.load(str(path))
        assert state.corrupt_lines == 0
        assert state.next_batch_index("u") == 2


class TestSalvageEvent:
    """salvage=True truncation is a *typed, journaled* event (not just a
    silent repair): the writer appends a ``journal_salvaged`` record
    naming what was lost, and replays absorb it for campaign reports."""

    def _corrupted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _sample_journal(path)
        _flip_line(path, 4, b'"successes": 1', b'"successes": 6')
        return path

    def test_salvage_writer_records_the_loss(self, tmp_path):
        path = self._corrupted(tmp_path)
        with Journal(str(path), salvage=True) as journal:
            # lines 4..6 were cut; the last surviving record was rix 2
            assert journal.salvage_event == {
                "dropped_records": 3, "last_good_rix": 2,
                "corrupt_line": 4}
        records = [json.loads(line) for line in open(path)]
        event = [record for record in records
                 if record["type"] == "journal_salvaged"]
        assert len(event) == 1
        assert event[0]["dropped_records"] == 3
        assert event[0]["last_good_rix"] == 2

    def test_replay_absorbs_salvage_events(self, tmp_path):
        path = self._corrupted(tmp_path)
        with Journal(str(path), salvage=True):
            pass
        state = JournalState.load(str(path))
        assert len(state.salvage_events) == 1
        assert state.salvage_events[0]["dropped_records"] == 3

    def test_clean_journal_has_no_salvage_event(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _sample_journal(path)
        with Journal(str(path), salvage=True) as journal:
            assert journal.salvage_event is None
        state = JournalState.load(str(path))
        assert state.salvage_events == []


def _flip_crc(line):
    record = json.loads(line)
    record["crc"] ^= 1
    return json.dumps(record, sort_keys=True).encode("utf-8")


#: one mid-file corruption per integrity check a journal line must pass
_CORRUPTIONS = {
    "bad-json": lambda line: line[:len(line) // 2],
    "non-object": lambda line: b"[1, 2, 3]",
    "flipped-crc": _flip_crc,
    "rix-gap": None,  # the line is dropped: the next rix jumps
}


class TestSalvageStops:
    @pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
    def test_salvage_stops_at_the_first_bad_record(self, tmp_path,
                                                  corruption):
        path = tmp_path / "journal.jsonl"
        _sample_journal(path, batches=6)
        lines = path.read_bytes().split(b"\n")[:-1]
        bad = 4  # header, unit_started, batches 0 and 1 come before it
        if _CORRUPTIONS[corruption] is None:
            del lines[bad]
        else:
            lines[bad] = _CORRUPTIONS[corruption](lines[bad])
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        state = JournalState.load(str(path), salvage=True)
        assert state.salvaged_line == bad + 1
        assert [record["index"] for record in state.batches["u"]] == [0, 1]
