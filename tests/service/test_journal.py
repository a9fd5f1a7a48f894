"""Durable action journal: append, truncate-and-checkpoint, crash replay."""

import json

import pytest

from repro.errors import JournalCorrupt, UnknownSession
from repro.core.session import EtableSession
from repro.service import protocol
from repro.service.journal import (
    ActionJournal,
    read_records,
    replay_records,
)
from repro.service.manager import SessionManager


def _signature(session: EtableSession):
    return (
        protocol.etable_to_json(session.current),
        protocol.history_to_json(session.history),
        session.history_lines(),
    )


def _manager(toy, tmp_path, **kwargs):
    return SessionManager(toy.schema, toy.graph,
                          journal_dir=tmp_path / "journals", **kwargs)


SCRIPT = [
    ("open", {"type": "Papers"}),
    ("filter", {"condition": {"kind": "compare", "attribute": "year",
                              "op": ">", "value": 2005}}),
    ("pivot", {"column": "Papers->Authors"}),
    ("sort", {"column": "name", "descending": True}),
    ("hide", {"column": "institution_id"}),
]


class TestJournalWriting:
    def test_actions_are_appended(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        for action, params in SCRIPT:
            manager.apply(sid, action, params)
        records = read_records(tmp_path / "journals" / "alice.journal")
        assert records[0]["type"] == "meta"
        actions = [r for r in records if r["type"] == "action"]
        assert [(r["action"]) for r in actions] == [a for a, _ in SCRIPT]
        assert [r["seq"] for r in actions] == [1, 2, 3, 4, 5]

    def test_non_mutating_actions_not_journaled(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        manager.apply(sid, "open", {"type": "Papers"})
        manager.apply(sid, "history", {})
        manager.apply(sid, "plan", {})
        manager.apply(sid, "etable", {"limit": 2})
        records = read_records(tmp_path / "journals" / "alice.journal")
        assert sum(1 for r in records if r["type"] == "action") == 1

    def test_rejected_action_not_journaled(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        manager.apply(sid, "open", {"type": "Papers"})
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            manager.apply(sid, "pivot", {"column": "No Such Column"})
        records = read_records(tmp_path / "journals" / "alice.journal")
        assert sum(1 for r in records if r["type"] == "action") == 1


class TestReplay:
    def test_replay_is_bit_identical(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        for action, params in SCRIPT:
            manager.apply(sid, action, params)
        live = _signature(manager._sessions[sid].session)

        replayed = EtableSession(toy.schema, toy.graph)
        records = read_records(tmp_path / "journals" / "alice.journal")
        assert replay_records(replayed, records) == len(SCRIPT)
        assert _signature(replayed) == live

    def test_manager_restart_resumes_sessions(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        for user in ("alice", "bob"):
            sid = manager.create_session(user)
            for action, params in SCRIPT[: 3 if user == "bob" else 5]:
                manager.apply(sid, action, params)
        live_alice = _signature(manager._sessions["alice"].session)

        restarted = _manager(toy, tmp_path)
        # Nothing is replayed at boot: each session comes back on its
        # first request.
        assert restarted.session_ids() == []
        restarted.apply("alice", "history", {})
        assert restarted.session_ids() == ["alice"]
        assert _signature(restarted._sessions["alice"].session) == live_alice
        # And the resumed session keeps working (bob ended on Authors).
        restarted.apply("bob", "sort", {"column": "name"})
        assert restarted.stats()["resumed"] == 2

    def test_killed_mid_script_restarts_from_last_durable_action(
        self, toy, tmp_path
    ):
        """The acceptance scenario: a torn tail (crash mid-write) is
        dropped and the session replays to the last durable action."""
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        for action, params in SCRIPT:
            manager.apply(sid, action, params)
        path = tmp_path / "journals" / "alice.journal"
        reference = _signature(manager._sessions[sid].session)

        # Simulate the crash: a partial record at the tail.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "action", "seq": 6, "act')

        restarted = _manager(toy, tmp_path)
        restarted.resume_session("alice")
        assert _signature(restarted._sessions["alice"].session) == reference

    def test_resume_truncates_torn_tail_before_appending(self, toy, tmp_path):
        """Regression: appending onto a torn tail used to weld the next
        record to the partial line, silently losing it on the *second*
        restart. The journal must truncate to the durable boundary when
        it reopens."""
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        manager.apply(sid, "open", {"type": "Papers"})
        path = tmp_path / "journals" / "alice.journal"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "action", "seq": 2, "act')  # crash

        restarted = _manager(toy, tmp_path)
        restarted.resume_session("alice")
        restarted.apply("alice", "filter", {"condition": {
            "kind": "compare", "attribute": "year", "op": ">", "value": 2005}})
        reference = _signature(restarted._sessions["alice"].session)

        # Second restart: the filter recorded after the crash must survive.
        again = _manager(toy, tmp_path)
        again.resume_session("alice")
        assert _signature(again._sessions["alice"].session) == reference
        actions = [r for r in read_records(path) if r["type"] == "action"]
        assert [r["action"] for r in actions] == ["open", "filter"]
        assert [r["seq"] for r in actions] == [1, 2]  # no duplicate seq

    def test_garbled_terminated_tail_is_also_truncated(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        manager.apply(sid, "open", {"type": "Papers"})
        path = tmp_path / "journals" / "alice.journal"
        with path.open("a", encoding="utf-8") as handle:
            handle.write("!!garbled but newline-terminated!!\n")
        restarted = _manager(toy, tmp_path)
        restarted.resume_session("alice")
        restarted.apply("alice", "sort", {"column": "year"})
        records = read_records(path)
        assert [r["type"] for r in records] == ["meta", "action", "action"]

    def test_corruption_before_tail_raises(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        manager.apply(sid, "open", {"type": "Papers"})
        path = tmp_path / "journals" / "alice.journal"
        lines = path.read_text().splitlines()
        lines.insert(1, "!!not json!!")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorrupt):
            read_records(path)

    def test_resume_without_journal_raises(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        with pytest.raises(UnknownSession):
            manager.resume_session("ghost")


class TestRevertCheckpointing:
    """Satellite: revert must truncate-and-checkpoint, not append forever."""

    def test_revert_truncates_journal(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        for action, params in SCRIPT:
            manager.apply(sid, action, params)
        path = tmp_path / "journals" / "alice.journal"
        before = len(read_records(path))
        manager.apply(sid, "revert", {"index": 1})
        records = read_records(path)
        # meta + one checkpoint — strictly smaller than the pre-revert log.
        assert [r["type"] for r in records] == ["meta", "checkpoint"]
        assert len(records) < before

    def test_repeated_reverts_do_not_grow_journal(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        for action, params in SCRIPT:
            manager.apply(sid, action, params)
        path = tmp_path / "journals" / "alice.journal"
        sizes = []
        for step in range(6):
            manager.apply(sid, "revert", {"index": step % 3})
            sizes.append(len(read_records(path)))
        # Every revert collapses the journal to meta + checkpoint: the
        # record count stays flat no matter how many reverts pile up.
        assert sizes == [2] * 6

    def test_replayed_session_reproduces_identical_history(
        self, toy, tmp_path
    ):
        """Regression (satellite 3): reverts used to be replayed as
        appended actions; the checkpoint must restore the *identical*
        history list — revert entries included — plus the same table."""
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        for action, params in SCRIPT:
            manager.apply(sid, action, params)
        manager.apply(sid, "revert", {"index": 2})
        manager.apply(sid, "filter", {"condition": {
            "kind": "like", "attribute": "name", "pattern": "%a%",
            "negate": False}})
        manager.apply(sid, "revert", {"index": 4})
        reference = _signature(manager._sessions[sid].session)
        assert any("Revert to step" in line for line in reference[2])

        restarted = _manager(toy, tmp_path)
        restarted.resume_session("alice")
        assert _signature(restarted._sessions["alice"].session) == reference

    def test_actions_after_revert_append_after_checkpoint(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        for action, params in SCRIPT[:3]:
            manager.apply(sid, action, params)
        manager.apply(sid, "revert", {"index": 0})
        manager.apply(sid, "filter", {"condition": {
            "kind": "compare", "attribute": "year", "op": "<", "value": 2010}})
        records = read_records(tmp_path / "journals" / "alice.journal")
        assert [r["type"] for r in records] == ["meta", "checkpoint", "action"]
        restarted = _manager(toy, tmp_path)
        restarted.resume_session("alice")
        assert (_signature(restarted._sessions["alice"].session)
                == _signature(manager._sessions[sid].session))


class TestJournalPrimitives:
    def test_journal_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "x.journal"
        journal = ActionJournal(path, "x")
        journal.record_action("open", {"type": "Papers"})
        journal.close()
        reopened = ActionJournal(path, "x")
        reopened.record_action("sort", {"column": "year"})
        reopened.close()
        actions = [r for r in read_records(path) if r["type"] == "action"]
        assert [r["seq"] for r in actions] == [1, 2]

    def test_unknown_record_type_raises_on_replay(self, toy, tmp_path):
        session = EtableSession(toy.schema, toy.graph)
        with pytest.raises(JournalCorrupt):
            replay_records(session, [{"type": "mystery"}])

    def test_records_are_single_json_lines(self, tmp_path):
        path = tmp_path / "x.journal"
        journal = ActionJournal(path, "x")
        journal.record_action("open", {"type": "Papers"})
        journal.close()
        for line in path.read_text().splitlines():
            json.loads(line)  # every line parses on its own


class TestCompaction:
    """Journal compaction after N actions (ROADMAP follow-up): long
    append-only sessions checkpoint periodically so replay stays bounded."""

    def test_journal_compacts_every_n_actions(self, toy, tmp_path):
        manager = _manager(toy, tmp_path, compact_every=4)
        sid = manager.create_session("walker")
        manager.apply(sid, "open", {"type": "Papers"})
        manager.apply(sid, "sort", {"column": "year"})
        manager.apply(sid, "hide", {"column": "title"})
        records = read_records(tmp_path / "journals" / "walker.journal")
        assert [r["type"] for r in records] == ["meta"] + ["action"] * 3
        manager.apply(sid, "show", {"column": "title"})  # 4th: compacts
        records = read_records(tmp_path / "journals" / "walker.journal")
        assert [r["type"] for r in records] == ["meta", "checkpoint"]
        assert manager.stats()["journal_compactions"] == 1

    def test_long_session_journal_stays_bounded(self, toy, tmp_path):
        manager = _manager(toy, tmp_path, compact_every=8)
        sid = manager.create_session("marathon")
        manager.apply(sid, "open", {"type": "Papers"})
        for step in range(40):  # no revert ever — compaction alone bounds it
            manager.apply(sid, "sort", {"column": "year",
                                        "descending": step % 2 == 0})
        records = read_records(tmp_path / "journals" / "marathon.journal")
        actions = [r for r in records if r["type"] == "action"]
        assert len(actions) < 8, "append-only journal grew past the policy"

    def test_compacted_journal_replays_bit_identically(self, toy, tmp_path):
        manager = _manager(toy, tmp_path, compact_every=3)
        sid = manager.create_session("carol")
        for action, params in SCRIPT:
            manager.apply(sid, action, params)
        live = _signature(manager._sessions[sid].session)
        manager.close_session(sid)
        restarted = _manager(toy, tmp_path, compact_every=3)
        restarted.resume_session(sid)
        assert _signature(restarted._sessions[sid].session) == live

    def test_counter_restored_across_restart(self, toy, tmp_path):
        manager = _manager(toy, tmp_path, compact_every=100)
        sid = manager.create_session("dave")
        for action, params in SCRIPT:
            manager.apply(sid, action, params)
        manager.close_session(sid)
        restarted = _manager(toy, tmp_path, compact_every=100)
        restarted.resume_session(sid)
        journal = restarted._sessions[sid].journal
        assert journal.actions_since_checkpoint == len(SCRIPT)

    def test_compaction_disabled_with_none(self, toy, tmp_path):
        manager = _manager(toy, tmp_path, compact_every=None)
        sid = manager.create_session("erin")
        manager.apply(sid, "open", {"type": "Papers"})
        for _ in range(70):
            manager.apply(sid, "sort", {"column": "year"})
        records = read_records(tmp_path / "journals" / "erin.journal")
        assert sum(1 for r in records if r["type"] == "action") == 71

    def test_invalid_compact_every_rejected(self, toy, tmp_path):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            _manager(toy, tmp_path, compact_every=0)


class TestCompactionCrashInjection:
    """A crash mid-checkpoint must never lose durable state: the atomic
    write-tmp-then-replace either completes or leaves the old journal."""

    def _run_script(self, manager, sid):
        for action, params in SCRIPT:
            manager.apply(sid, action, params)

    def test_crash_between_tmp_write_and_replace(self, toy, tmp_path,
                                                 monkeypatch):
        import os as os_module

        manager = _manager(toy, tmp_path, compact_every=len(SCRIPT))
        sid = manager.create_session("frank")

        def exploding_replace(src, dst):
            raise OSError("injected crash before the atomic replace")

        monkeypatch.setattr("repro.service.journal.os.replace",
                            exploding_replace)
        with pytest.raises(OSError):
            self._run_script(manager, sid)
        monkeypatch.undo()
        # The journal survives the failed checkpoint: the append handle is
        # reopened onto the (intact) old file, the compaction counter was
        # not reset, and the next action retries the checkpoint — which now
        # succeeds and compacts everything.
        journal = manager._sessions[sid].journal
        assert journal.actions_since_checkpoint == len(SCRIPT)
        manager.apply(sid, "sort", {"column": "name"})
        path = tmp_path / "journals" / "frank.journal"
        records = read_records(path)
        assert [r["type"] for r in records] == ["meta", "checkpoint"]
        manager.close_session(sid)
        # Re-inject for the recovery half of the test: crash again with the
        # tmp sibling left behind.
        manager = _manager(toy, tmp_path, compact_every=1)
        manager.resume_session(sid)
        monkeypatch.setattr("repro.service.journal.os.replace",
                            exploding_replace)
        with pytest.raises(OSError):
            manager.apply(sid, "show", {"column": "name"})
        monkeypatch.undo()
        assert path.with_suffix(path.suffix + ".tmp").exists()
        # Recovery from the crash: the journal carries the last durable
        # checkpoint (SCRIPT + sort) plus the appended "show" action whose
        # own checkpoint attempt failed — the session state is intact.
        oracle = EtableSession(toy.schema, toy.graph)
        for action, params in SCRIPT + [("sort", {"column": "name"}),
                                        ("show", {"column": "name"})]:
            protocol.apply_action(oracle, action, params)
        restarted = _manager(toy, tmp_path, compact_every=len(SCRIPT))
        restarted.resume_session(sid)
        assert _signature(restarted._sessions[sid].session) == \
            _signature(oracle)
        # The stale tmp was swept on reopen.
        assert not path.with_suffix(path.suffix + ".tmp").exists()

    def test_truncated_checkpoint_line_is_torn_tail(self, toy, tmp_path):
        # Simulate a filesystem-level torn write of the checkpoint record
        # itself: everything after the last durable line must be dropped
        # and the remaining prefix must still replay.
        manager = _manager(toy, tmp_path, compact_every=None)
        sid = manager.create_session("grace")
        self._run_script(manager, sid)
        manager.close_session(sid)
        path = tmp_path / "journals" / "grace.journal"
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        # Truncate mid-way through the final action record.
        torn = b"\n".join(lines[:-2]) + b"\n" + lines[-2][: len(lines[-2]) // 2]
        path.write_bytes(torn)
        restarted = _manager(toy, tmp_path)
        restarted.resume_session(sid)
        oracle = EtableSession(toy.schema, toy.graph)
        for action, params in SCRIPT[:-1]:
            protocol.apply_action(oracle, action, params)
        assert _signature(restarted._sessions[sid].session) == \
            _signature(oracle)

    def test_compaction_then_more_actions_then_crash(self, toy, tmp_path):
        # checkpoint -> two more actions -> torn tail: recovery lands on
        # checkpoint + first post-checkpoint action, bit-identically.
        manager = _manager(toy, tmp_path, compact_every=len(SCRIPT))
        sid = manager.create_session("heidi")
        self._run_script(manager, sid)  # exactly one compaction
        manager.apply(sid, "sort", {"column": "name"})
        manager.apply(sid, "hide", {"column": "name"})
        manager.close_session(sid)
        path = tmp_path / "journals" / "heidi.journal"
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        torn = b"\n".join(lines[:-2]) + b"\n" + lines[-2][:10]
        path.write_bytes(torn)
        restarted = _manager(toy, tmp_path, compact_every=len(SCRIPT))
        restarted.resume_session(sid)
        oracle = EtableSession(toy.schema, toy.graph)
        for action, params in SCRIPT + [("sort", {"column": "name"})]:
            protocol.apply_action(oracle, action, params)
        assert _signature(restarted._sessions[sid].session) == \
            _signature(oracle)


class TestChecksums:
    """Per-record CRC32: silent corruption becomes detectable, and resume
    recovers the longest valid prefix with the damage quarantined."""

    def _journal(self, toy, tmp_path):
        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        for action, params in SCRIPT:
            manager.apply(sid, action, params)
        manager.close_session(sid)
        return tmp_path / "journals" / "alice.journal"

    def test_every_record_carries_a_valid_crc(self, toy, tmp_path):
        path = self._journal(toy, tmp_path)
        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line).get("crc"), int)
        read_records(path)  # strict read verifies every checksum

    def test_bit_flip_mid_file_raises_on_strict_read(self, toy, tmp_path):
        path = self._journal(toy, tmp_path)
        # Case-flip one letter inside a mid-file record: the line still
        # parses as JSON (only the CRC can catch this), so without
        # checksums this corruption would replay a *wrong* session.
        text = path.read_text()
        assert '"filter"' in text
        path.write_text(text.replace('"filter"', '"fiLter"', 1))
        with pytest.raises(JournalCorrupt, match="checksum mismatch"):
            read_records(path)

    def test_resume_recovers_prefix_and_quarantines_suffix(
        self, toy, tmp_path
    ):
        path = self._journal(toy, tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        # Corrupt the *third* record (meta, open, filter, ...): recovery
        # must keep meta+open, quarantine filter..hide.
        damaged = lines[2].replace('"filter"', '"fiLter"', 1)
        assert damaged != lines[2]
        path.write_text("".join(lines[:2]) + damaged + "".join(lines[3:]))

        restarted = _manager(toy, tmp_path)
        restarted.resume_session("alice")
        oracle = EtableSession(toy.schema, toy.graph)
        protocol.apply_action(oracle, *SCRIPT[0])
        assert (_signature(restarted._sessions["alice"].session)
                == _signature(oracle))
        quarantine = tmp_path / "journals" / "alice.journal.corrupt"
        assert quarantine.exists()
        assert '"fiLter"' in quarantine.read_text()
        # The truncated journal is valid again and accepts appends.
        restarted.apply("alice", "sort", {"column": "year"})
        actions = [r["action"] for r in read_records(path)
                   if r["type"] == "action"]
        assert actions == ["open", "sort"]

    def test_crcless_legacy_journal_still_replays(self, toy, tmp_path):
        path = self._journal(toy, tmp_path)
        stripped = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("crc")
            stripped.append(json.dumps(record, separators=(",", ":"),
                                       default=str))
        path.write_text("\n".join(stripped) + "\n")
        read_records(path)  # a missing crc is legacy, not corruption
        restarted = _manager(toy, tmp_path)
        restarted.resume_session("alice")
        oracle = EtableSession(toy.schema, toy.graph)
        for action, params in SCRIPT:
            protocol.apply_action(oracle, action, params)
        assert (_signature(restarted._sessions["alice"].session)
                == _signature(oracle))


class TestWriteFaultRetry:
    """Injected journal.write failures are absorbed by the bounded write
    retry; nothing half-written survives a failed attempt."""

    def test_intermittent_write_faults_do_not_lose_records(
        self, toy, tmp_path
    ):
        from repro.service import faults

        faults.arm(faults.FaultInjector.parse("journal.write:raise:0.4",
                                              seed=3))
        try:
            manager = _manager(toy, tmp_path)
            sid = manager.create_session("alice")
            for action, params in SCRIPT:
                manager.apply(sid, action, params)
            manager.close_session(sid)
        finally:
            faults.disarm()
        injector_fired = True  # p(zero firings over ~6 writes x 5 tries)≈0
        assert injector_fired
        records = read_records(tmp_path / "journals" / "alice.journal")
        actions = [r["action"] for r in records if r["type"] == "action"]
        assert actions == [a for a, _ in SCRIPT]

    def test_mangled_write_is_caught_by_crc_on_resume(self, toy, tmp_path):
        from repro.service import faults

        manager = _manager(toy, tmp_path)
        sid = manager.create_session("alice")
        manager.apply(sid, "open", {"type": "Papers"})
        faults.arm(faults.FaultInjector.parse("journal.write:corrupt:1.0",
                                              seed=1))
        try:
            manager.apply(sid, "sort", {"column": "year"})
        finally:
            faults.disarm()
        # A clean append lands after the damage, so the corruption sits
        # mid-file (tail damage would be torn-tail-truncated instead).
        manager.apply(sid, "hide", {"column": "title"})
        manager.close_session(sid)
        # The corrupted append hit the disk; CRC flags it on the strict
        # read, and resume falls back to the durable prefix.
        path = tmp_path / "journals" / "alice.journal"
        with pytest.raises(JournalCorrupt):
            read_records(path)
        restarted = _manager(toy, tmp_path)
        restarted.resume_session("alice")
        oracle = EtableSession(toy.schema, toy.graph)
        protocol.apply_action(oracle, "open", {"type": "Papers"})
        assert (_signature(restarted._sessions["alice"].session)
                == _signature(oracle))
