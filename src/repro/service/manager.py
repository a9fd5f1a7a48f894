"""Concurrent session hosting over one shared typed-graph database.

The paper's user study ran many participants against one ETable server
(Section 8); related navigation-server work (Wheeldon et al.) observes the
same workload shape: *many cheap stateful sessions over one shared
database*. The :class:`SessionManager` is that shape made concrete:

* every session is an ordinary :class:`~repro.core.session.EtableSession`,
  serialized by its own lock (a browsing session is inherently sequential —
  one user, one action at a time);
* all sessions share one immutable ``SchemaGraph``/``InstanceGraph`` and
  one thread-safe :class:`~repro.core.cache.CachingExecutor`, so the work
  of one user becomes the cache hit of another — the plan-and-reuse
  engine amortized across the whole user population;
* sessions are evicted by idle TTL and by LRU pressure, but eviction is
  cheap to undo: each session's durable action journal
  (:mod:`repro.service.journal`) lets the manager resurrect it on the next
  request, replaying through the shared cache.

A session leaves memory by one path, whatever the reason (close, drain,
rebalance, shutdown, TTL or LRU eviction): its in-flight action finishes,
its quota is persisted, its journal is closed, and every observer
registered with :meth:`SessionManager.add_observer` hears
``on_session_end(session_id, event)``, event ``"closed"`` or
``"evicted"``. Observers also hear ``on_action(session_id, action,
session)`` after each accepted mutating action; the stream hub is the one
observer the service registers.

The manager speaks :mod:`repro.service.protocol`; the HTTP frontend and the
throughput bench are thin clients of :meth:`apply` / :meth:`handle_request`.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.analysis.runtime import assert_locked
from repro.errors import (
    AuthError,
    Degraded,
    JournalCorrupt,
    ProtocolError,
    QuotaExceeded,
    ReproError,
    ServiceError,
    UnknownSession,
)
from repro.tgm.instance_graph import InstanceGraph
from repro.tgm.schema_graph import SchemaGraph
from repro.core.cache import CachingExecutor
from repro.core.session import EtableSession, check_row_limit
from repro.service import protocol
from repro.service.journal import (
    JOURNAL_SUFFIX,
    ActionJournal,
    read_records,
    replay_records,
)


@dataclass
class ManagedSession:
    """One hosted session plus its lock, journal, and usage clock."""

    session_id: str
    session: EtableSession
    lock: threading.Lock = field(default_factory=threading.Lock)
    journal: ActionJournal | None = None
    created_at: float = 0.0
    last_used: float = 0.0
    actions: int = 0
    # Per-session bearer token (None = auth not required) and the fixed
    # quota window's bookkeeping; all three are read and written only
    # while holding ``lock``, like the session itself.
    auth_token: str | None = None
    quota_window_start: float = 0.0
    quota_used: int = 0


class SessionManager:
    """Hosts many concurrent ETable sessions over one shared graph.

    Every hosted session runs the ``planned`` engine over the shared
    executor: the service has no engine switch.
    """

    def __init__(
        self,
        schema: SchemaGraph,
        graph: InstanceGraph,
        row_limit: int | None = None,
        max_sessions: int = 256,
        ttl_seconds: float | None = 1800.0,
        journal_dir: str | Path | None = None,
        executor: CachingExecutor | None = None,
        fsync_journal: bool = False,
        compact_every: int | None = 64,
        require_auth: bool = False,
        quota_actions: int | None = None,
        quota_window: float = 60.0,
    ) -> None:
        check_row_limit(row_limit)
        if compact_every is not None and compact_every < 1:
            raise ServiceError(
                f"compact_every must be >= 1 (or None), got {compact_every}"
            )
        if quota_actions is not None and quota_actions < 1:
            raise ServiceError(
                f"quota_actions must be >= 1 (or None), got {quota_actions}"
            )
        if quota_window <= 0:
            raise ServiceError(
                f"quota_window must be > 0 seconds, got {quota_window}"
            )
        self.schema = schema
        self.graph = graph
        self.row_limit = row_limit
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self.journal_dir = Path(journal_dir) if journal_dir else None
        self.fsync_journal = fsync_journal
        # Journal compaction policy (ROADMAP follow-up): checkpoint long
        # append-only journals every N mutating actions so replay cost
        # stays bounded even for sessions that never revert. None disables.
        self.compact_every = compact_every
        # Access control: with require_auth each session gets a bearer
        # token at create time (persisted in its journal meta record, so a
        # resumed session honors the token its client already holds), and
        # every session-scoped request must present it. quota_actions caps
        # *mutating* actions per fixed quota_window seconds per session —
        # the lever that keeps one runaway client from starving the other
        # sessions sharing the executor.
        self.require_auth = require_auth
        self.quota_actions = quota_actions
        self.quota_window = quota_window
        # Observers (the stream hub): see add_observer.
        self._observers: list[Any] = []
        self.observer_errors = 0  # guarded-by: self._lock
        # One executor for everyone: cross-session reuse is the service's
        # whole performance story.
        if executor is None:
            executor = CachingExecutor(graph)
        self.executor = executor
        self._sessions: dict[str, ManagedSession] = {}  # guarded-by: self._lock
        # Sessions whose journal stopped accepting writes (disk full, IO
        # error): session_id -> reason. A degraded session is read-only —
        # reads resurrect it from the journal's durable prefix, mutating
        # actions get a typed Degraded error — until an operator restarts
        # with the disk healed.
        self._degraded: dict[str, str] = {}  # guarded-by: self._lock
        self._lock = threading.RLock()
        self.created = 0  # guarded-by: self._lock
        self.resumed = 0  # guarded-by: self._lock
        self.evicted = 0  # guarded-by: self._lock
        self.total_actions = 0  # guarded-by: self._lock
        self.compactions = 0  # guarded-by: self._lock
        self.degraded = 0  # guarded-by: self._lock

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create_session(self, session_id: str | None = None) -> str:
        """Open a new session; returns its id."""
        with self._lock:
            if session_id is None:
                session_id = uuid.uuid4().hex[:12]
            if not _valid_session_id(session_id):
                raise ProtocolError(
                    f"invalid session id {session_id!r} (alphanumeric, "
                    f"'-' and '_' only, at most 64 chars)"
                )
            if session_id in self._sessions:
                raise ServiceError(f"session {session_id!r} already exists")
            managed = self._host(session_id)
            self.created += 1
            self._evict_over_capacity(protect=session_id)
            return managed.session_id

    def close_session(self, session_id: str, drop_journal: bool = False,
                      auth_token: str | None = None) -> None:
        """Close a session (its journal stays unless ``drop_journal``).

        Under ``require_auth`` the caller needs the session's token even
        when the session is not live (evicted, or not yet resumed after a
        restart): its journal is dropped only if the token matches the
        one persisted in the journal's meta record.
        """
        with self._lock:
            managed = self._sessions.get(session_id)
            if managed is not None:
                expected = managed.auth_token
            elif drop_journal and self.require_auth:
                expected = self._journal_token(session_id)
            else:
                expected = None
            _authorize(session_id, expected, auth_token)
            managed = self._sessions.pop(session_id, None)
        if managed is None and not drop_journal:
            raise UnknownSession(f"no session {session_id!r}")
        if managed is not None:
            self._release(managed, "closed")
        if drop_journal and self.journal_dir is not None:
            path = self._journal_path(session_id)
            if path.exists():
                path.unlink()

    def session_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def shutdown(self) -> None:
        """Graceful stop: :meth:`release_sessions` for every live session.

        Journaled sessions remain resumable: a new manager over the same
        journal directory replays each one verbatim on its first request.
        """
        self.release_sessions()

    def release_sessions(
        self, session_ids: list[str] | None = None
    ) -> list[str]:
        """Control-plane drain: close hosted sessions, keep their journals.

        The fleet worker's handoff hook — on drain, rebalance, or a
        rolling restart the router tells the old owner to release, and the
        new owner resurrects each session from its journal on the next
        request. Unlike :meth:`close_session` this bypasses per-session
        auth (it is never reachable from the public HTTP surface) and
        skips ids that are not currently live. Returns the released ids.
        """
        with self._lock:
            targets = (list(self._sessions) if session_ids is None
                       else session_ids)
            released = [
                managed for sid in targets
                if (managed := self._sessions.pop(sid, None)) is not None
            ]
        for managed in released:
            self._release(managed, "closed")
        return [managed.session_id for managed in released]

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def _checkout_locked(self, session_id: str) -> ManagedSession:
        """Check out a session with its lock held (caller must release)."""
        while True:
            managed = self._checkout(session_id)
            managed.lock.acquire()
            with self._lock:
                still_hosted = self._sessions.get(session_id) is managed
            if still_hosted:
                return managed
            # Evicted between checkout and lock acquisition (its journal is
            # closed); check out the resurrected instance instead.
            managed.lock.release()

    def _check_access(self, managed: ManagedSession, action: str,
                      auth_token: str | None) -> None:
        """Auth + quota gate, under the session lock, before the action.

        The quota is a fixed window over *mutating* actions: reads
        (etable/history/plan) stay free so a throttled client can still
        render what it has. Rejected actions consume quota — the point is
        to bound a runaway client's load, not its success rate.
        """
        _authorize(managed.session_id, managed.auth_token, auth_token)
        if (
            self.quota_actions is not None
            and action in protocol.MUTATING_ACTIONS
        ):
            now = time.monotonic()
            if now - managed.quota_window_start >= self.quota_window:
                managed.quota_window_start = now
                managed.quota_used = 0
            if managed.quota_used >= self.quota_actions:
                raise QuotaExceeded(
                    f"session {managed.session_id!r} exceeded "
                    f"{self.quota_actions} mutating actions per "
                    f"{self.quota_window:g}s window"
                )
            managed.quota_used += 1

    def apply(self, session_id: str, action: str,
              params: dict[str, Any] | None = None,
              auth_token: str | None = None) -> dict[str, Any]:
        """Apply one protocol action to one session, journaling it.

        Thread-safe: the manager lock covers session lookup/eviction only;
        the action itself runs under the session's own lock, so distinct
        sessions execute concurrently while one session's actions stay
        strictly ordered.
        """
        params = params or {}
        compacted = False
        managed = self._checkout_locked(session_id)
        try:
            self._check_access(managed, action, auth_token)
            if action in protocol.MUTATING_ACTIONS:
                with self._lock:
                    reason = self._degraded.get(session_id)
                if reason is not None:
                    raise Degraded(
                        f"session {session_id!r} is read-only: {reason}"
                    )
            result = protocol.apply_action(managed.session, action, params)
            # Journal only after the action was accepted — a rejected
            # action must not poison replay.
            if managed.journal is not None and action in protocol.MUTATING_ACTIONS:
                if action == "revert":
                    try:
                        # Truncate-and-checkpoint: see repro.service.journal.
                        managed.journal.checkpoint(
                            protocol.history_to_json(managed.session.history)
                        )
                    except OSError as error:
                        raise self._degrade(managed, error) from error
                else:
                    try:
                        managed.journal.record_action(action, params)
                    except OSError as error:
                        raise self._degrade(managed, error) from error
                    if (
                        self.compact_every is not None
                        and managed.journal.actions_since_checkpoint
                        >= self.compact_every
                    ):
                        # Periodic compaction: same atomic checkpoint as a
                        # revert, so replay cost stays bounded for sessions
                        # that never revert. A *failed* compaction does not
                        # degrade the session — the action itself is already
                        # durable as a plain record, so the error propagates
                        # and the next action simply retries the checkpoint.
                        managed.journal.checkpoint(
                            protocol.history_to_json(managed.session.history)
                        )
                        compacted = True
            managed.actions += 1
            managed.last_used = time.monotonic()
            # Observers run under the session lock, *after* the action and
            # its journal record: the hub's frames are therefore serialized
            # in exact action order, and a frame is never emitted for an
            # action that a crash would lose.
            if self._observers and action in protocol.MUTATING_ACTIONS:
                self._notify("on_action", session_id, action, managed.session)
        finally:
            managed.lock.release()
        with self._lock:
            self.total_actions += 1
            if compacted:
                self.compactions += 1
        return result

    def add_observer(self, observer: Any) -> None:
        """Register an observer of session states and session ends.

        ``observer.on_action(session_id, action, session)`` runs under the
        session lock after each accepted mutating action, so an observer
        sees session states in exact action order.
        ``observer.on_session_end(session_id, event)`` runs after a session
        leaves memory, with event ``"closed"`` or ``"evicted"``, so SSE
        subscribers get a terminal frame instead of keepalives forever.
        Observer exceptions are counted, not propagated: a broken stream
        must not fail the user's action."""
        self._observers.append(observer)

    def _notify(self, hook: str, *args: Any) -> None:
        for observer in list(self._observers):
            try:
                getattr(observer, hook)(*args)
            except Exception:
                with self._lock:
                    self.observer_errors += 1

    def with_session(self, session_id: str,
                     fn: Callable[[EtableSession], Any],
                     auth_token: str | None = None) -> Any:
        """Run ``fn(session)`` under the session's lock.

        Same checkout/resurrection/auth rules as :meth:`apply`, but without
        journaling or quota — for read-side consumers that need a view
        consistent with the observer stream (the hub's subscribe-time
        snapshot: taken under the same lock that orders the frames, so the
        snapshot plus subsequent frames can never interleave wrongly).
        """
        managed = self._checkout_locked(session_id)
        try:
            _authorize(session_id, managed.auth_token, auth_token)
            managed.last_used = time.monotonic()
            return fn(managed.session)
        finally:
            managed.lock.release()

    def session_auth_token(self, session_id: str) -> str | None:
        """The live session's bearer token (None when auth is off)."""
        with self._lock:
            managed = self._sessions.get(session_id)
        return managed.auth_token if managed is not None else None

    def handle_request(self, request: protocol.Request) -> protocol.Response:
        """Serve one protocol request envelope (session mgmt included)."""
        try:
            if request.action == "create_session":
                session_id = self.create_session(
                    request.params.get("session_id") or request.session_id
                )
                result: dict[str, Any] = {"session_id": session_id}
                token = self.session_auth_token(session_id)
                if token is not None:
                    result["auth_token"] = token
                return protocol.Response.success(
                    result, request, session_id=session_id
                )
            if request.action == "close_session":
                session_id = self._required_session_id(request)
                self.close_session(
                    session_id,
                    drop_journal=protocol.bool_param(request.params,
                                                     "drop_journal"),
                    auth_token=request.auth_token,
                )
                return protocol.Response.success({"closed": session_id}, request)
            if request.action == "stats":
                return protocol.Response.success(self.stats(), request)
            if request.action == "tables":
                # The default table list is session-independent; serve it
                # without requiring a session (Figure 9, component 1).
                return protocol.Response.success(
                    {"tables": [t.name for t in self.schema.entity_types]},
                    request,
                )
            session_id = self._required_session_id(request)
            result = self.apply(session_id, request.action, request.params,
                                auth_token=request.auth_token)
            return protocol.Response.success(result, request)
        except ReproError as error:
            return protocol.Response.failure(error, request)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def resume_session(self, session_id: str) -> str:
        """Rebuild an evicted/crashed session from its journal.

        The only way a session comes back: :meth:`_checkout` calls it on
        the session's first request after an eviction, a crash, a fleet
        migration or a restart.
        """
        with self._lock:
            if session_id in self._sessions:
                return session_id
            if self.journal_dir is None:
                raise UnknownSession(f"no session {session_id!r}")
            path = self._journal_path(session_id)
            if not path.exists():
                raise UnknownSession(
                    f"no live session or journal for {session_id!r}"
                )
            # Opening the journal scans it once: records to replay, torn
            # tail truncated, sequence counter restored.
            managed = self._host(session_id, existing_journal=True)
            # Pre-acquire the session lock *before* the session becomes
            # visible: a concurrent apply() that finds the entry queues
            # behind the replay instead of acting on (and journaling into)
            # a still-empty session.
            managed.lock.acquire()
        try:
            # Replay outside the manager lock (it can take a while).
            assert managed.journal is not None
            replay_records(managed.session, managed.journal.recovered_records)
            # Quota bookkeeping rides eviction/resurrection too: without
            # this, LRU pressure would hand a throttled session a fresh
            # window (the quota-reset bug this PR fixes).
            self._restore_quota(managed)
            managed.last_used = time.monotonic()
        except BaseException:
            # A failed replay must not leave a half-built session live.
            with self._lock:
                self._sessions.pop(session_id, None)
            if managed.journal is not None:
                managed.journal.close()
            raise
        finally:
            managed.lock.release()
        with self._lock:
            self.resumed += 1
            self._evict_over_capacity(protect=session_id)
        return session_id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            live = len(self._sessions)
            actions = self.total_actions
            created, resumed, evicted = self.created, self.resumed, self.evicted
            compactions = self.compactions
            observer_errors = self.observer_errors
            degraded = self.degraded
            degraded_live = len(self._degraded)
        return {
            "live_sessions": live,
            "created": created,
            "resumed": resumed,
            "evicted": evicted,
            "actions": actions,
            "journal_compactions": compactions,
            "degraded": degraded,
            "degraded_sessions": degraded_live,
            "require_auth": self.require_auth,
            "quota_actions": self.quota_actions,
            "observer_errors": observer_errors,
            "cache": self.executor.stats_payload(),
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _host(self, session_id: str,  # requires-lock
              existing_journal: bool = False) -> ManagedSession:
        assert_locked(self._lock, "SessionManager._lock")
        session = EtableSession(
            self.schema, self.graph, row_limit=self.row_limit,
            executor=self.executor,
        )
        auth_token = uuid.uuid4().hex if self.require_auth else None
        journal = None
        if self.journal_dir is not None:
            path = self._journal_path(session_id)
            if not existing_journal and path.exists():
                raise ServiceError(
                    f"journal for session {session_id!r} already exists; "
                    f"resume it instead of re-creating it"
                )
            journal = ActionJournal(path, session_id,
                                    fsync=self.fsync_journal,
                                    auth_token=auth_token)
            # An existing journal's persisted token wins over the freshly
            # minted one: the resuming client still holds the original.
            auth_token = journal.auth_token if self.require_auth else None
        now = time.monotonic()
        managed = ManagedSession(
            session_id=session_id, session=session, journal=journal,
            created_at=now, last_used=now, auth_token=auth_token,
        )
        self._sessions[session_id] = managed
        return managed

    def _checkout(self, session_id: str) -> ManagedSession:
        with self._lock:
            self._evict_expired()
            managed = self._sessions.get(session_id)
        if managed is None:
            # Transparent resurrection: an evicted (or pre-restart) session
            # with a journal picks up exactly where it stopped.
            self.resume_session(session_id)
            with self._lock:
                managed = self._sessions.get(session_id)
            if managed is None:
                raise UnknownSession(f"no session {session_id!r}")
        return managed

    def _degrade(self, managed: ManagedSession, error: OSError) -> Degraded:
        """Flip a session read-only after its journal refused a write.

        The in-memory state already holds the action that failed to
        become durable; keeping it would break bit-identical resume, so
        the instance is dropped — the next *read* resurrects the session
        from the journal's durable prefix (which is exactly the state
        minus the lost action), while mutating actions get the typed
        ``Degraded`` error until an operator intervenes. Called with the
        session lock held (the same ordering as ``_checkout_locked``).
        """
        session_id = managed.session_id
        with self._lock:
            if self._sessions.get(session_id) is managed:
                del self._sessions[session_id]
            self._degraded[session_id] = (
                f"journal write failed ({error})"
            )
            self.degraded += 1
        if managed.journal is not None:
            try:
                managed.journal.close()
            except OSError:  # pragma: no cover - double disk failure
                pass
        return Degraded(
            f"session {session_id!r} is read-only: journal write failed "
            f"({error})"
        )

    def _journal_path(self, session_id: str) -> Path:
        assert self.journal_dir is not None
        # Validate on *every* path construction, not just create_session:
        # resume and drop_journal reach here with client-supplied ids, and
        # "../../etc/x" must never escape the journal directory.
        if not _valid_session_id(session_id):
            raise ProtocolError(
                f"invalid session id {session_id!r} (alphanumeric, "
                f"'-' and '_' only, at most 64 chars)"
            )
        return self.journal_dir / f"{session_id}{JOURNAL_SUFFIX}"

    def _journal_token(self, session_id: str) -> str | None:
        """The token in a not-live session's journal meta record; None when
        there is no journal to drop.

        Reads the records without opening an ``ActionJournal``, whose
        constructor would repair the file. A journal that cannot be read,
        or that carries no token, raises ``AuthError``: refuse rather than
        delete.
        """
        if self.journal_dir is None:
            return None
        path = self._journal_path(session_id)
        if not path.exists():
            return None
        try:
            records = read_records(path)
        except (OSError, JournalCorrupt):
            records = []
        tokens = [str(record["auth_token"]) for record in records
                  if record.get("type") == "meta" and record.get("auth_token")]
        if not tokens:
            raise AuthError(
                f"session {session_id!r} requires a valid auth token "
                f"(none can be read from its journal)"
            )
        return tokens[-1]

    def _evict_expired(self) -> None:  # requires-lock
        assert_locked(self._lock, "SessionManager._lock")
        if self.ttl_seconds is None:
            return
        deadline = time.monotonic() - self.ttl_seconds
        for session_id, managed in list(self._sessions.items()):
            if managed.last_used < deadline:
                self._evict_one(session_id)

    def _evict_over_capacity(self, protect: str | None = None) -> None:  # requires-lock
        """Evict LRU sessions past ``max_sessions``.

        ``protect`` exempts the session being created/resumed right now:
        when every *other* session is mid-action, the newcomer would
        otherwise be the only lockable victim, and create_session would
        return an id it just evicted.
        """
        assert_locked(self._lock, "SessionManager._lock")
        while len(self._sessions) > self.max_sessions:
            victims = sorted(
                (managed for managed in self._sessions.values()
                 if managed.session_id != protect),
                key=lambda m: m.last_used,
            )
            for managed in victims:
                if self._evict_one(managed.session_id):
                    break
            else:
                return  # every other session is mid-action; try again later

    def _evict_one(self, session_id: str) -> bool:  # requires-lock
        """Evict one session if it is idle right now (never mid-action)."""
        assert_locked(self._lock, "SessionManager._lock")
        managed = self._sessions.get(session_id)
        if managed is None or not self._release(managed, "evicted",
                                                wait=False):
            return False
        self.evicted += 1
        return True

    def _release(self, managed: ManagedSession, event: str,
                 wait: bool = True) -> bool:
        """Take a session out of memory: the one path every exit takes.

        Waits out the session's in-flight action, which was checked out
        before the session left ``_sessions`` and must still be able to
        journal its accepted action. Eviction runs under the manager lock,
        so it passes ``wait=False`` and skips a session that is mid-action.
        Then the session leaves ``_sessions`` (the close paths have already
        popped it), its quota is persisted, its journal closed, and the
        observers hear ``on_session_end(session_id, event)``. Returns
        whether the session was released.
        """
        if not managed.lock.acquire(blocking=wait):
            return False
        try:
            with self._lock:
                if self._sessions.get(managed.session_id) is managed:
                    del self._sessions[managed.session_id]
            if managed.journal is not None:
                self._persist_quota(managed)
                managed.journal.close()
        finally:
            managed.lock.release()
        self._notify("on_session_end", managed.session_id, event)
        return True

    def _persist_quota(self, managed: ManagedSession) -> None:
        """Flush live quota state into the journal before it closes.

        Caller holds ``managed.lock``. Only written when there is anything
        to carry: a throttled-or-partially-spent quota whose fixed window
        has not yet expired. Wall-clock expiry so the record survives a
        process boundary (fleet migration) where ``monotonic()`` does not.
        """
        if (
            self.quota_actions is None
            or managed.journal is None
            or managed.quota_used <= 0
        ):
            return
        remaining = self.quota_window - (
            time.monotonic() - managed.quota_window_start
        )
        if remaining <= 0:
            return  # window already over: resurrection starts fresh anyway
        managed.journal.record_quota(
            managed.quota_used, time.time() + remaining
        )

    def _restore_quota(self, managed: ManagedSession) -> None:
        """Re-arm quota state from the journal's last quota record.

        Caller holds ``managed.lock``. The record's wall-clock expiry is
        mapped back onto this process's monotonic clock; an expired record
        is ignored (the window lapsed while the session was cold).
        """
        if self.quota_actions is None or managed.journal is None:
            return
        record = None
        for candidate in managed.journal.recovered_records:
            if candidate.get("type") == "quota":
                record = candidate
        if record is None:
            return
        try:
            used = int(record["used"])
            expires_at = float(record["window_expires_at"])
        except (KeyError, TypeError, ValueError):
            return  # malformed bookkeeping must not block resurrection
        remaining = expires_at - time.time()
        if remaining <= 0 or used <= 0:
            return
        remaining = min(remaining, self.quota_window)
        managed.quota_used = used
        managed.quota_window_start = time.monotonic() - (
            self.quota_window - remaining
        )

    def _required_session_id(self, request: protocol.Request) -> str:
        session_id = request.session_id or request.params.get("session_id")
        if not session_id:
            raise ProtocolError(
                f"action {request.action!r} needs a session_id"
            )
        return str(session_id)


def _authorize(session_id: str, expected: str | None,
               presented: str | None) -> None:
    """Refuse ``presented`` unless it is the session's token; a session
    whose ``expected`` token is None needs none."""
    if expected is not None and presented != expected:
        raise AuthError(f"session {session_id!r} requires a valid auth token")


def _valid_session_id(session_id: object) -> bool:
    return (
        isinstance(session_id, str)
        and 0 < len(session_id) <= 64
        and all(c.isalnum() or c in "-_" for c in session_id)
    )
