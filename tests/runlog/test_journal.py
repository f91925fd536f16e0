"""The durable journal: round-trips, torn tails, replay semantics."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.study import StudyConfig
from repro.runlog import (
    JournalSchemaError,
    ReplayState,
    RunJournal,
    RunJournalError,
    journal_dir,
    load_records,
    run_id,
)


def _fresh(tmp_path, run="r1", n=0):
    journal = RunJournal.fresh(tmp_path / "j.jsonl", run=run)
    for index in range(n):
        journal.append({"event": "shard-finish", "stage": "s",
                        "key": f"k{index}", "artifact": f"a{index}"})
    return journal


class TestRoundTrip:
    def test_append_then_load(self, tmp_path):
        journal = _fresh(tmp_path, n=3)
        journal.close()
        records = load_records(tmp_path / "j.jsonl")
        assert [record["event"] for record in records] == [
            "run-start", "shard-finish", "shard-finish", "shard-finish"
        ]
        assert [record["seq"] for record in records] == [0, 1, 2, 3]

    def test_append_survives_without_close(self, tmp_path):
        # fsync-on-append: the record is durable the moment append
        # returns, no close/flush required (the crash-safety contract).
        journal = _fresh(tmp_path, n=2)
        records = load_records(tmp_path / "j.jsonl")
        journal.close()
        assert len(records) == 3

    def test_closed_journal_refuses_append(self, tmp_path):
        journal = _fresh(tmp_path)
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(RunJournalError):
            journal.append({"event": "shard-finish", "key": "k"})

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_records(tmp_path / "nope.jsonl") == []


class TestTornTail:
    def test_half_written_line_is_dropped(self, tmp_path):
        journal = _fresh(tmp_path, n=2)
        journal.close()
        path = tmp_path / "j.jsonl"
        with path.open("ab") as handle:
            handle.write(b'{"crc": "dead", "record": {"event": "shard-')
        records = load_records(path)
        assert len(records) == 3  # run-start + 2 finishes, tail dropped

    def test_flipped_bits_stop_the_prefix(self, tmp_path):
        journal = _fresh(tmp_path, n=3)
        journal.close()
        path = tmp_path / "j.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"shard-finish", b"shard-fXnish")
        path.write_bytes(b"".join(lines))
        records = load_records(path)
        # CRC catches the flip; everything after it is untrusted too.
        assert len(records) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        n_records=st.integers(min_value=0, max_value=6),
        cut=st.integers(min_value=0, max_value=2000),
    )
    def test_any_truncation_loads_a_valid_prefix(
        self, tmp_path_factory, n_records, cut
    ):
        """The crash-safety property: however many trailing bytes a
        crash tore off, the journal loads to an exact prefix of what
        was appended."""
        tmp_path = tmp_path_factory.mktemp("journal")
        journal = _fresh(tmp_path, n=n_records)
        journal.close()
        path = tmp_path / "j.jsonl"
        raw = path.read_bytes()
        expected = load_records(path)
        truncated = raw[: min(cut, len(raw))]
        path.write_bytes(truncated)
        records = load_records(path)
        assert records == expected[: len(records)]
        # And every surviving record is bytewise intact, not repaired.
        for record, line in zip(
            records, truncated.splitlines(keepends=True)
        ):
            assert json.loads(line)["record"] == record


class TestResume:
    def test_resume_continues_the_seq(self, tmp_path):
        _fresh(tmp_path, n=2).close()
        journal = RunJournal.resume(tmp_path / "j.jsonl", run="r1")
        appended = journal.append({"event": "shard-finish", "key": "k9"})
        journal.close()
        assert appended["seq"] == 3
        assert len(load_records(tmp_path / "j.jsonl")) == 4

    def test_resume_truncates_a_torn_tail(self, tmp_path):
        _fresh(tmp_path, n=2).close()
        path = tmp_path / "j.jsonl"
        with path.open("ab") as handle:
            handle.write(b"garbage tail without newline")
        journal = RunJournal.resume(path, run="r1")
        journal.append({"event": "run-finish", "status": "complete"})
        journal.close()
        records = load_records(path)
        assert [record["event"] for record in records] == [
            "run-start", "shard-finish", "shard-finish", "run-finish"
        ]
        # The file itself is clean again: full reparse sees every line.
        assert len(path.read_bytes().splitlines()) == 4

    def test_resume_missing_journal_raises(self, tmp_path):
        with pytest.raises(RunJournalError):
            RunJournal.resume(tmp_path / "j.jsonl", run="r1")

    def test_resume_wrong_run_raises(self, tmp_path):
        _fresh(tmp_path, run="r1").close()
        with pytest.raises(JournalSchemaError):
            RunJournal.resume(tmp_path / "j.jsonl", run="r2")

    def test_resume_headless_journal_raises(self, tmp_path):
        journal = RunJournal.fresh(tmp_path / "j.jsonl", run="r1")
        journal.close()
        path = tmp_path / "j.jsonl"
        # Drop the run-start line, leaving a valid non-head record.
        body = RunJournal.fresh(tmp_path / "k.jsonl", run="r1")
        body.append({"event": "shard-finish", "key": "k0"})
        body.close()
        lines = (tmp_path / "k.jsonl").read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[1])
        with pytest.raises(JournalSchemaError):
            RunJournal.resume(path, run="r1")


class TestReplayState:
    def test_finish_and_quarantine_interplay(self):
        state = ReplayState.from_records([
            {"event": "run-start", "run": "r"},
            {"event": "shard-finish", "key": "a", "artifact": "art-a"},
            {"event": "shard-quarantined", "key": "b"},
            {"event": "shard-quarantined", "key": "a"},
            {"event": "shard-finish", "key": "b", "artifact": "art-b"},
        ])
        # Latest verdict wins in both directions.
        assert state.finished == {"b": "art-b"}
        assert state.quarantined == {"a"}
        assert not state.completed

    def test_run_finish_closes(self):
        state = ReplayState.from_records([
            {"event": "run-start", "run": "r"},
            {"event": "run-finish", "status": "partial"},
        ])
        assert state.completed
        assert state.status == "partial"


class TestRunId:
    def test_executor_is_normalised_away(self):
        base = StudyConfig(seed=7, n_sites=120, shards=4)
        pooled = StudyConfig(
            seed=7, n_sites=120, shards=4,
            executor="process:8", parallelism=8,
        )
        assert run_id(base) == run_id(pooled)

    def test_everything_else_matters(self):
        base = StudyConfig(seed=7, n_sites=120, shards=4)
        assert run_id(base) != run_id(StudyConfig(seed=8, n_sites=120,
                                                  shards=4))
        assert run_id(base) != run_id(StudyConfig(seed=7, n_sites=240,
                                                  shards=4))
        assert run_id(base) != run_id(
            StudyConfig(seed=7, n_sites=120, shards=4,
                        fault_profile="worker-crash")
        )

    def test_pinned_value(self):
        # Fields hash by name and declaration order: a reordered or
        # renamed StudyConfig field moves every run id and orphans
        # every existing journal and cache entry.
        assert run_id(StudyConfig(seed=7, n_sites=120)) == (
            "8ded979a6ce7d72f53e01ea1c9341505"
        )

    def test_journal_dir_is_cache_scoped(self, tmp_path):
        assert journal_dir(tmp_path) == tmp_path / "runs"
