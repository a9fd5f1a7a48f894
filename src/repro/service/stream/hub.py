"""The stream hub: bridges manager action threads to SSE subscribers.

Threading model — exactly two sides:

* **Action side** (manager worker threads): :meth:`StreamHub.on_action` is
  registered as a :meth:`SessionManager.add_action_observer` hook and runs
  *under the session lock*, immediately after each accepted mutating
  action. It serializes the session's ETable payload and hands it to the
  event loop with ``call_soon_threadsafe`` — still under the lock, so the
  loop receives payloads in exact action order.
* **Loop side** (the asyncio thread): everything else — frame building,
  subscriber queues, coalescing — runs on the event loop, so none of it
  needs locks. The only shared state is the watcher registry (which
  sessions have subscribers at all), guarded by a plain mutex so the
  action side can skip payload serialization for unwatched sessions.

Backpressure is per subscriber and strictly bounded: each subscriber owns
a deque of at most ``max_queue`` frames. When a slow consumer overflows
it, the whole backlog is coalesced into *one* frame diffing what the
client has against the latest state — and if even that delta would
outweigh a snapshot, the snapshot is sent instead. Memory per subscriber
is therefore O(max_queue + one table), never O(actions missed).
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Any

from repro.core.planner import RowIdentities
from repro.core.session import EtableSession
from repro.service.manager import SessionManager
from repro.service.protocol import DeltaFrame, etable_to_json
from repro.service.stream.frames import (
    FrameSource,
    StreamStats,
    coalesce_frame,
)


class StreamSubscriber:
    """One SSE consumer's bounded frame queue. Loop-thread only."""

    def __init__(self, session_id: str, max_queue: int) -> None:
        self.session_id = session_id
        self.max_queue = max_queue
        # (frame, payload_after) pairs: payload_after is the full state the
        # client will have folded once it receives the frame — the
        # coalescing baseline.
        self.queue: deque[tuple[DeltaFrame, dict[str, Any] | None]] = deque()
        self.event = asyncio.Event()
        self.base_payload: dict[str, Any] | None = None
        self.closed = False

    def push(self, frame: DeltaFrame, payload_after: dict[str, Any] | None,
             stats: StreamStats) -> None:
        if self.closed:
            return
        if len(self.queue) >= self.max_queue:
            # Slow consumer: replace the whole backlog with one frame that
            # takes the client from what it has straight to the latest
            # state. coalesce_frame downgrades to a snapshot when the
            # merged delta would not be smaller.
            actions = frame.coalesced + sum(
                queued.coalesced for queued, _ in self.queue
            )
            merged = coalesce_frame(
                self.base_payload, payload_after, seq=frame.seq,
                action=frame.action, coalesced=actions, stats=stats,
            )
            self.queue.clear()
            self.queue.append((merged, payload_after))
        else:
            self.queue.append((frame, payload_after))
        self.event.set()

    def push_closed(self, frame: DeltaFrame) -> None:
        """Enqueue the terminal frame, bypassing backlog coalescing.

        A closed frame must never be merged away by the slow-consumer
        path — it is the only thing telling the client the session ended —
        and the deque may exceed ``max_queue`` by this one frame.
        """
        if self.closed:
            return
        self.queue.append((frame, self.base_payload))
        self.event.set()

    def pop(self) -> tuple[DeltaFrame, dict[str, Any] | None] | None:
        """Next frame to write; advances the coalescing baseline."""
        if not self.queue:
            self.event.clear()
            return None
        frame, payload_after = self.queue.popleft()
        self.base_payload = payload_after
        return frame, payload_after


class _SessionStream:
    """Loop-side per-session state: one frame source, many subscribers."""

    def __init__(self, stats: StreamStats) -> None:
        self.source = FrameSource(stats)
        self.subscribers: list[StreamSubscriber] = []


class StreamHub:
    """Per-process fan-out of session deltas to SSE subscribers."""

    def __init__(self, manager: SessionManager,
                 loop: asyncio.AbstractEventLoop,
                 max_queue: int = 32) -> None:
        self.manager = manager
        self._loop = loop
        self.max_queue = max_queue
        self.stats = StreamStats()  # loop-thread only
        self._sessions: dict[str, _SessionStream] = {}  # loop-thread only
        self._watch_lock = threading.Lock()
        self._watchers: dict[str, int] = {}  # guarded-by: self._watch_lock
        self._seen_reports: dict[str, int] = {}  # guarded-by: self._watch_lock
        self._closed = False  # guarded-by: self._watch_lock
        manager.add_action_observer(self.on_action)
        manager.add_lifecycle_observer(self.on_session_end)

    # ------------------------------------------------------------------
    # Action side (manager worker threads, under the session lock)
    # ------------------------------------------------------------------
    def on_action(self, session_id: str, action: str,
                  session: EtableSession) -> None:
        with self._watch_lock:
            if self._closed or self._watchers.get(session_id, 0) <= 0:
                return
        payload = (
            etable_to_json(session.current)
            if session.current is not None else None
        )
        identities = self._fresh_identities(session_id, session)
        self._loop.call_soon_threadsafe(
            self._publish, session_id, action, payload, identities
        )

    def on_session_end(self, session_id: str, event: str) -> None:
        """Lifecycle hook: the session was closed or evicted server-side.

        Without this, subscribers of a closed/evicted session would hang
        on ``: ping`` keepalives forever (the bug this PR fixes). Runs on
        the manager's action side; the terminal frame is built and fanned
        out on the loop, like every other frame.
        """
        with self._watch_lock:
            if self._closed or self._watchers.get(session_id, 0) <= 0:
                return
        self._loop.call_soon_threadsafe(
            self._publish_closed, session_id, event
        )

    def _fresh_identities(
        self, session_id: str, session: EtableSession
    ) -> RowIdentities | None:
        """Row identities from the incremental engine, only when *this*
        action produced them (a presentation action leaves the previous
        report in place — detected by object identity, so a stale report
        is never trusted)."""
        executor = getattr(session, "_executor", None)
        report = getattr(executor, "last_report", None)
        if report is None or report.identities is None:
            return None
        with self._watch_lock:
            if self._seen_reports.get(session_id) == id(report):
                return None
            self._seen_reports[session_id] = id(report)
        return report.identities

    # ------------------------------------------------------------------
    # Loop side
    # ------------------------------------------------------------------
    def _publish(self, session_id: str, action: str,
                 payload: dict[str, Any] | None,
                 identities: RowIdentities | None) -> None:
        state = self._sessions.get(session_id)
        if state is None:
            return  # last subscriber left while the callback was in flight
        frame = state.source.frame_for(payload, action=action,
                                       identities=identities)
        for subscriber in list(state.subscribers):
            subscriber.push(frame, payload, self.stats)

    def _publish_closed(self, session_id: str, event: str) -> None:
        state = self._sessions.pop(session_id, None)
        if state is None:
            return  # last subscriber left while the callback was in flight
        frame = state.source.closed(event)
        for subscriber in list(state.subscribers):
            # The subscriber stays open so the server task drains and
            # writes the terminal frame, then breaks and unsubscribes
            # (unsubscribe tolerates the already-popped session state).
            subscriber.push_closed(frame)

    async def subscribe(self, session_id: str,
                        auth_token: str | None = None) -> StreamSubscriber:
        """Attach a subscriber; its first queued frame is a snapshot.

        The snapshot is taken under the session lock (via
        :meth:`SessionManager.with_session`) and the subscriber attached by
        a ``call_soon_threadsafe`` queued *while still holding it* — the
        same channel the action observer uses — so the snapshot and all
        subsequent frames form one totally ordered sequence: nothing
        between the snapshot's state and the first frame can be missed.
        """
        self._watch(session_id, +1)
        subscriber = StreamSubscriber(session_id, self.max_queue)
        try:
            def grab(session: EtableSession) -> None:
                payload = (
                    etable_to_json(session.current)
                    if session.current is not None else None
                )
                self._loop.call_soon_threadsafe(
                    self._attach, session_id, subscriber, payload
                )

            await self._loop.run_in_executor(
                None, lambda: self.manager.with_session(
                    session_id, grab, auth_token=auth_token
                )
            )
        except BaseException:
            self._watch(session_id, -1)
            raise
        # call_soon_threadsafe is FIFO and _attach was queued before the
        # executor future resolved, so the subscriber is attached by now.
        return subscriber

    def _attach(self, session_id: str, subscriber: StreamSubscriber,
                payload: dict[str, Any] | None) -> None:
        state = self._sessions.get(session_id)
        if state is None:
            state = _SessionStream(self.stats)
            self._sessions[session_id] = state
        frame = state.source.snapshot(payload)
        subscriber.base_payload = payload
        subscriber.queue.append((frame, payload))
        subscriber.event.set()
        state.subscribers.append(subscriber)

    def unsubscribe(self, subscriber: StreamSubscriber) -> None:
        """Loop-thread: detach and release the session's watch count."""
        subscriber.closed = True
        state = self._sessions.get(subscriber.session_id)
        if state is not None and subscriber in state.subscribers:
            state.subscribers.remove(subscriber)
            if not state.subscribers:
                # Nobody listening: stop paying for payload serialization.
                del self._sessions[subscriber.session_id]
        self._watch(subscriber.session_id, -1)

    def open_streams(self) -> int:
        return sum(
            len(state.subscribers) for state in self._sessions.values()
        )

    def stats_payload(self) -> dict[str, Any]:
        payload = self.stats.payload()
        payload["open_streams"] = self.open_streams()
        payload["streamed_sessions"] = len(self._sessions)
        return payload

    def close(self) -> None:
        with self._watch_lock:
            self._closed = True
            self._watchers.clear()
            self._seen_reports.clear()
        for state in self._sessions.values():
            for subscriber in state.subscribers:
                subscriber.closed = True
                subscriber.event.set()
        self._sessions.clear()

    # ------------------------------------------------------------------
    def _watch(self, session_id: str, delta: int) -> None:
        with self._watch_lock:
            count = self._watchers.get(session_id, 0) + delta
            if count > 0:
                self._watchers[session_id] = count
            else:
                self._watchers.pop(session_id, None)
                self._seen_reports.pop(session_id, None)
