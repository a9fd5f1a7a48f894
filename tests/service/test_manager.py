"""SessionManager lifecycle: locks, TTL + LRU eviction, shared cache."""

import time

import pytest

from repro.errors import (
    ProtocolError,
    QuotaExceeded,
    ServiceError,
    UnknownSession,
)
from repro.service import Request, protocol
from repro.service.manager import SessionManager


def _manager(toy, **kwargs):
    return SessionManager(toy.schema, toy.graph, **kwargs)


class TestLifecycle:
    def test_create_apply_close(self, toy):
        manager = _manager(toy)
        sid = manager.create_session()
        result = manager.apply(sid, "open", {"type": "Papers"})
        assert result["primary_type"] == "Papers"
        manager.close_session(sid)
        with pytest.raises(UnknownSession):
            manager.apply(sid, "open", {"type": "Papers"})

    def test_duplicate_session_id_rejected(self, toy):
        manager = _manager(toy)
        manager.create_session("alice")
        with pytest.raises(ServiceError):
            manager.create_session("alice")

    def test_invalid_session_id_rejected(self, toy):
        manager = _manager(toy)
        with pytest.raises(ProtocolError):
            manager.create_session("../../etc/passwd")

    def test_non_string_session_id_rejected(self, toy):
        manager = _manager(toy)
        with pytest.raises(ProtocolError):
            manager.create_session(123)
        # Through the envelope path it must become a failure response,
        # not an unhandled TypeError.
        response = manager.handle_request(Request(
            action="create_session", params={"session_id": 123},
        ))
        assert not response.ok

    def test_traversal_session_id_cannot_touch_foreign_paths(
        self, toy, tmp_path
    ):
        """Resume and drop_journal build journal paths from client ids;
        an id like '../x' must be rejected, never resolved."""
        outside = tmp_path / "outside.journal"
        outside.write_text('{"type":"meta","version":1,"session_id":"x"}\n')
        manager = _manager(toy, journal_dir=tmp_path / "journals")
        with pytest.raises(ProtocolError):
            manager.resume_session("../outside")
        with pytest.raises(ProtocolError):
            manager.close_session("../outside", drop_journal=True)
        assert outside.exists()

    def test_close_unknown_session_raises(self, toy):
        manager = _manager(toy)
        with pytest.raises(UnknownSession):
            manager.close_session("ghost")

    def test_sessions_are_isolated(self, toy):
        manager = _manager(toy)
        alice = manager.create_session("alice")
        bob = manager.create_session("bob")
        manager.apply(alice, "open", {"type": "Papers"})
        manager.apply(bob, "open", {"type": "Conferences"})
        manager.apply(alice, "filter", {"condition": {
            "kind": "compare", "attribute": "year", "op": ">", "value": 2005}})
        assert manager.apply(alice, "etable", {})["etable"]["primary_type"] \
            == "Papers"
        assert manager.apply(bob, "etable", {})["etable"]["primary_type"] \
            == "Conferences"
        assert len(manager.apply(bob, "history", {})["lines"]) == 1

    def test_shutdown_closes_journals_and_stays_resumable(self, toy,
                                                          tmp_path):
        manager = _manager(toy, journal_dir=tmp_path)
        sid = manager.create_session("alice")
        manager.apply(sid, "open", {"type": "Papers"})
        before = manager.apply(sid, "etable", {"include_history": True})
        manager.shutdown()
        assert manager.session_ids() == []
        # Graceful stop, not data loss: a new manager over the same
        # journal directory replays the session bit-identically on its
        # first request.
        restarted = _manager(toy, journal_dir=tmp_path)
        assert restarted.session_ids() == []
        after = restarted.apply(sid, "etable", {"include_history": True})
        assert before == after
        assert restarted.stats()["resumed"] == 1

    def test_stats_counts(self, toy):
        manager = _manager(toy)
        sid = manager.create_session()
        manager.apply(sid, "open", {"type": "Papers"})
        stats = manager.stats()
        assert stats["live_sessions"] == 1
        assert stats["created"] == 1
        assert stats["actions"] == 1
        assert "cache" in stats and "prefixes" in stats["cache"]


class TestSharedCache:
    def test_one_users_work_is_anothers_hit(self, toy):
        manager = _manager(toy)
        alice = manager.create_session("alice")
        bob = manager.create_session("bob")
        manager.apply(alice, "open", {"type": "Papers"})
        misses_after_alice = manager.executor.stats.misses
        manager.apply(bob, "open", {"type": "Papers"})
        assert manager.executor.stats.hits >= 1
        assert manager.executor.stats.misses == misses_after_alice

    def test_prefix_reuse_crosses_sessions(self, toy):
        manager = _manager(toy)
        alice = manager.create_session("alice")
        bob = manager.create_session("bob")
        # Alice pays for the Papers->Authors join; Bob's *different*
        # downstream filter still starts from her cached prefix.
        manager.apply(alice, "open", {"type": "Papers"})
        manager.apply(alice, "pivot", {"column": "Papers->Authors"})
        manager.apply(bob, "open", {"type": "Papers"})
        manager.apply(bob, "pivot", {"column": "Papers->Authors"})
        manager.apply(bob, "filter", {"condition": {
            "kind": "like", "attribute": "name", "pattern": "%a%",
            "negate": False}})
        assert manager.executor.stats.hits >= 2
        assert manager.executor.stats.prefix_hits >= 1


class TestEviction:
    def test_ttl_eviction(self, toy):
        manager = _manager(toy, ttl_seconds=0.05)
        sid = manager.create_session()
        manager.apply(sid, "open", {"type": "Papers"})
        time.sleep(0.1)
        other = manager.create_session()
        manager.apply(other, "open", {"type": "Papers"})  # triggers sweep
        assert sid not in manager.session_ids()
        assert manager.evicted == 1

    def test_fresh_session_never_its_own_eviction_victim(self, toy):
        """Regression: with every other session mid-action (locked), the
        brand-new session used to be the only lockable victim — so
        create_session returned an id it had just evicted."""
        manager = _manager(toy, max_sessions=1, ttl_seconds=None)
        alice = manager.create_session("alice")
        manager.apply(alice, "open", {"type": "Papers"})
        managed_alice = manager._sessions["alice"]
        managed_alice.lock.acquire()  # alice is "mid-action"
        try:
            bob = manager.create_session("bob")
            assert bob in manager.session_ids()
            manager.apply(bob, "open", {"type": "Conferences"})
        finally:
            managed_alice.lock.release()

    def test_lru_eviction_over_capacity(self, toy):
        manager = _manager(toy, max_sessions=2, ttl_seconds=None)
        first = manager.create_session("first")
        manager.apply(first, "open", {"type": "Papers"})
        second = manager.create_session("second")
        manager.apply(second, "open", {"type": "Papers"})
        manager.apply(first, "sort", {"column": "year"})  # refresh first
        manager.create_session("third")
        assert manager.evicted == 1
        assert "second" not in manager.session_ids()
        assert set(manager.session_ids()) == {"first", "third"}

    def test_evicted_journaled_session_resurrects_transparently(
        self, toy, tmp_path
    ):
        manager = _manager(toy, max_sessions=1, ttl_seconds=None,
                           journal_dir=tmp_path / "j")
        alice = manager.create_session("alice")
        manager.apply(alice, "open", {"type": "Papers"})
        before = manager.apply(alice, "etable", {})
        bob = manager.create_session("bob")  # evicts alice (LRU)
        manager.apply(bob, "open", {"type": "Conferences"})
        assert "alice" not in manager.session_ids()
        # Touching alice again resurrects her from the journal mid-flight.
        after = manager.apply("alice", "etable", {})
        assert after == before
        assert manager.resumed == 1

    def test_concurrent_resume_and_apply_never_sees_empty_session(
        self, toy, tmp_path
    ):
        """Regression: resume used to publish the session before replaying
        its journal, so a racing apply() could act on an empty session.
        The session lock is now pre-acquired until replay finishes."""
        import threading

        manager = _manager(toy, max_sessions=1, ttl_seconds=None,
                           journal_dir=tmp_path / "j")
        alice = manager.create_session("alice")
        manager.apply(alice, "open", {"type": "Papers"})
        manager.apply(alice, "filter", {"condition": {
            "kind": "compare", "attribute": "year", "op": ">", "value": 2005}})
        manager.create_session("bob")  # evicts alice
        assert "alice" not in manager.session_ids()

        errors, results = [], []
        barrier = threading.Barrier(4)

        def poke():
            try:
                barrier.wait(timeout=10)
                # Must see the fully-replayed 6-row filtered table, or
                # queue behind the replay — never 'no ETable is open'.
                results.append(
                    manager.apply("alice", "etable", {})["etable"]["total_rows"]
                )
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=poke) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        assert results == [6] * 4

    def test_failed_replay_does_not_leave_half_built_session(
        self, toy, tmp_path
    ):
        from repro.errors import ReproError

        journal_dir = tmp_path / "j"
        manager = _manager(toy, journal_dir=journal_dir)
        sid = manager.create_session("alice")
        manager.apply(sid, "open", {"type": "Papers"})
        manager.close_session(sid)
        # Corrupt the journal so replay fails mid-way.
        path = journal_dir / "alice.journal"
        path.write_text(path.read_text()
                        + '{"type":"action","seq":9,"action":"pivot",'
                          '"params":{"column":"No Such"}}\n'
                          '{"type":"meta","version":1,"session_id":"alice"}\n')
        with pytest.raises(ReproError):
            manager.resume_session("alice")
        assert "alice" not in manager.session_ids()

    def test_evicted_session_without_journal_is_gone(self, toy):
        manager = _manager(toy, max_sessions=1, ttl_seconds=None)
        alice = manager.create_session("alice")
        manager.apply(alice, "open", {"type": "Papers"})
        manager.create_session("bob")
        with pytest.raises(UnknownSession):
            manager.apply("alice", "etable", {})


class TestQuotaPersistence:
    def test_quota_survives_eviction_and_resurrection(self, toy, tmp_path):
        """Regression: eviction used to reset quota state — an evicted
        throttled session came back from the journal with a fresh budget,
        so capacity pressure doubled as a quota laundering loop."""
        manager = _manager(toy, max_sessions=1, ttl_seconds=None,
                           journal_dir=tmp_path / "j",
                           quota_actions=2, quota_window=3600.0)
        alice = manager.create_session("alice")
        manager.apply(alice, "open", {"type": "Papers"})
        manager.apply(alice, "sort", {"column": "year"})
        with pytest.raises(QuotaExceeded):
            manager.apply(alice, "hide", {"column": "title"})
        before = manager.apply(alice, "etable", {})  # reads stay free

        manager.create_session("bob")  # evicts the throttled alice (LRU)
        assert "alice" not in manager.session_ids()

        # Resurrected from the journal: still throttled, state intact.
        assert manager.apply("alice", "etable", {}) == before
        assert manager.resumed == 1
        with pytest.raises(QuotaExceeded):
            manager.apply("alice", "hide", {"column": "title"})

    def test_quota_survives_close_and_resume(self, toy, tmp_path):
        manager = _manager(toy, journal_dir=tmp_path / "j",
                           quota_actions=1, quota_window=3600.0)
        sid = manager.create_session()
        manager.apply(sid, "open", {"type": "Papers"})
        manager.close_session(sid)
        manager.resume_session(sid)
        with pytest.raises(QuotaExceeded):
            manager.apply(sid, "sort", {"column": "year"})

    def test_expired_quota_window_is_not_restored(self, toy, tmp_path):
        """The journal carries the window's wall-clock expiry; a record
        whose window has lapsed must not throttle the resumed session."""
        import json as _json

        manager = _manager(toy, max_sessions=1, ttl_seconds=None,
                           journal_dir=tmp_path / "j",
                           quota_actions=1, quota_window=3600.0)
        alice = manager.create_session("alice")
        manager.apply(alice, "open", {"type": "Papers"})
        manager.create_session("bob")  # evicts alice, persisting quota

        journal_path = tmp_path / "j" / "alice.journal"
        lines = journal_path.read_text().splitlines()
        rewritten = []
        for line in lines:
            record = _json.loads(line)
            if record.get("type") == "quota":
                record["window_expires_at"] = time.time() - 10.0
            rewritten.append(_json.dumps(record))
        journal_path.write_text("\n".join(rewritten) + "\n")

        manager.apply("alice", "sort", {"column": "year"})  # fresh budget


class TestHandleRequest:
    def test_create_and_drive_via_envelopes(self, toy):
        manager = _manager(toy)
        created = manager.handle_request(Request(action="create_session"))
        assert created.ok
        sid = created.result["session_id"]
        response = manager.handle_request(Request(
            action="open", params={"type": "Papers"}, session_id=sid,
            request_id="r1",
        ))
        assert response.ok and response.request_id == "r1"
        assert response.result["primary_type"] == "Papers"

    def test_tables_needs_no_session(self, toy):
        manager = _manager(toy)
        response = manager.handle_request(Request(action="tables"))
        assert response.ok and "Papers" in response.result["tables"]

    def test_missing_session_id_is_failure_envelope(self, toy):
        manager = _manager(toy)
        response = manager.handle_request(Request(action="open",
                                                  params={"type": "Papers"}))
        assert not response.ok and "session_id" in response.error

    def test_domain_error_becomes_failure_envelope(self, toy):
        manager = _manager(toy)
        sid = manager.create_session()
        response = manager.handle_request(Request(
            action="open", params={"type": "Nonsense"}, session_id=sid,
        ))
        assert not response.ok
        assert response.error_type == "unknown_node_type"

    def test_close_session_envelope(self, toy):
        manager = _manager(toy)
        sid = manager.create_session()
        response = manager.handle_request(Request(
            action="close_session", session_id=sid,
        ))
        assert response.ok
        assert sid not in manager.session_ids()

    def test_stats_envelope(self, toy):
        manager = _manager(toy)
        response = manager.handle_request(Request(action="stats"))
        assert response.ok and "live_sessions" in response.result


class TestCloseAuth:
    """Under require_auth, dropping a journal needs the session's token
    even after the session stopped being live."""

    def _evicted(self, toy, tmp_path):
        journals = tmp_path / "j"
        manager = _manager(toy, require_auth=True, journal_dir=journals,
                           max_sessions=1, ttl_seconds=None)
        alice = manager.create_session("alice")
        token = manager.session_auth_token(alice)
        manager.apply(alice, "open", {"type": "Papers"}, auth_token=token)
        manager.create_session("bob")  # evicts alice (LRU)
        assert alice not in manager.session_ids()
        return manager, alice, token, journals / "alice.journal"

    @staticmethod
    def _drop(manager, session_id, auth_token):
        return manager.handle_request(Request(
            action="close_session", params={"drop_journal": True},
            session_id=session_id, auth_token=auth_token,
        ))

    def test_journal_drop_of_evicted_session_needs_its_token(
        self, toy, tmp_path
    ):
        manager, alice, token, journal = self._evicted(toy, tmp_path)
        for forged in (None, "not-the-token"):
            refused = self._drop(manager, alice, forged)
            assert not refused.ok
            assert refused.error_type == "auth_error"
            assert journal.exists()
        # The owner's session survived the attempts.
        resumed = manager.apply(alice, "etable", {}, auth_token=token)
        assert resumed["etable"]["primary_type"] == "Papers"
        manager.create_session("carol")  # evicts alice again
        assert alice not in manager.session_ids()
        assert self._drop(manager, alice, token).ok
        assert not journal.exists()

    def test_unreadable_journal_is_never_dropped(self, toy, tmp_path):
        manager, alice, token, journal = self._evicted(toy, tmp_path)
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[0] + "garbage\n" + "".join(lines[1:]))
        refused = self._drop(manager, alice, token)
        assert refused.error_type == "auth_error"
        assert journal.exists()


class TestEngineSelection:
    """The service engine is validated up front."""

    def test_unknown_engine_rejected(self, toy):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            _manager(toy, engine="naive")

    def test_stats_payload_is_json_serializable_when_cold(self, toy):
        import json

        manager = _manager(toy, engine="incremental")
        json.dumps(manager.stats())  # cold caches, no division by zero


class TestDegradedSessions:
    """A journal that stops accepting writes flips its session read-only
    (typed ``degraded``) instead of silently diverging memory from disk."""

    def _degrade(self, toy, tmp_path):
        manager = SessionManager(toy.schema, toy.graph,
                                 journal_dir=tmp_path / "journals")
        sid = manager.create_session("alice")
        manager.apply(sid, "open", {"type": "Papers"})
        managed = manager._sessions[sid]

        def broken_write(*args, **kwargs):
            raise OSError(28, "No space left on device")

        managed.journal.record_action = broken_write
        return manager, sid

    def test_write_failure_raises_typed_degraded(self, toy, tmp_path):
        from repro.errors import Degraded

        manager, sid = self._degrade(toy, tmp_path)
        with pytest.raises(Degraded, match="read-only"):
            manager.apply(sid, "sort", {"column": "year"})
        stats = manager.stats()
        assert stats["degraded"] == 1
        assert stats["degraded_sessions"] == 1

    def test_degraded_session_reads_from_durable_prefix(self, toy, tmp_path):
        from repro.errors import Degraded

        manager, sid = self._degrade(toy, tmp_path)
        with pytest.raises(Degraded):
            manager.apply(sid, "sort", {"column": "year"})
        # Reads resurrect the session from its durable prefix: the failed
        # sort never reached the journal, so it must not be visible.
        history = manager.apply(sid, "history", {})
        assert [e["description"] for e in history["entries"]] == [
            "Open 'Papers' table"
        ]
        # Mutating actions keep failing with the typed error...
        with pytest.raises(Degraded):
            manager.apply(sid, "hide", {"column": "title"})
        # ...and the wire envelope carries the machine-readable type.
        response = manager.handle_request(Request(
            action="sort", params={"column": "year"}, session_id=sid,
        ))
        assert not response.ok
        assert response.error_type == "degraded"
