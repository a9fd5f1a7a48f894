"""Delta-frame streaming: round-trip fixpoints, folding, coalescing, hub.

The streaming contract has two halves, both covered here:

* **wire**: `frame_from_json ∘ frame_to_json` is the identity, and
  `frame_to_json ∘ frame_from_json` is a fixpoint (serialize →
  deserialize → serialize yields the same JSON) — so a frame survives any
  number of proxy hops unchanged;
* **semantics**: folding the frame stream client-side reproduces the full
  ``etable_to_json`` payload after every action, including under
  coalescing backpressure (where whole backlogs collapse into one frame).
"""

import asyncio
import random

import pytest

from repro.core.session import EtableSession
from repro.errors import AuthError, ProtocolError, UnknownSession
from repro.service import protocol
from repro.service.manager import SessionManager
from repro.service.protocol import (
    DeltaFrame,
    apply_action,
    etable_to_json,
    frame_from_json,
    frame_to_json,
)
from repro.service.stream import (
    FrameSource,
    StreamHub,
    StreamStats,
    coalesce_frame,
    fold_frame,
    payload_bytes,
)

# A scripted toy walk covering every frame shape: structural snapshots
# (open, pivot, seeall, revert), row-set deltas (filter, nfilter), pure
# reorder deltas (sort), and column-flag deltas (hide, show).
SCRIPT = [
    ("open", {"type": "Papers"}),
    ("filter", {"condition": {"kind": "compare", "attribute": "year",
                              "op": ">", "value": 2001}}),
    ("sort", {"column": "year", "descending": True}),
    ("hide", {"column": "title"}),
    ("show", {"column": "title"}),
    ("pivot", {"column": "Papers->Authors"}),
    ("sort", {"column": "name"}),
    ("revert", {"index": 1}),
    ("nfilter", {"column": "Papers->Authors", "condition": {
        "kind": "like", "attribute": "name", "pattern": "%a%"}}),
    ("seeall", {"row": 0, "column": "Papers->Authors"}),
]


def _payload(session):
    return etable_to_json(session.current)


def _walk(toy, engine="planned"):
    """Yield (action, payload) along the scripted walk."""
    session = EtableSession(toy.schema, toy.graph, engine=engine)
    for action, params in SCRIPT:
        apply_action(session, action, params)
        yield action, _payload(session)


class TestFrameRoundTrip:
    def test_frames_from_real_walk_round_trip(self, toy):
        source = FrameSource()
        for action, payload in _walk(toy):
            frame = source.frame_for(payload, action=action)
            wire = frame_to_json(frame)
            rebuilt = frame_from_json(wire)
            assert rebuilt == frame
            # serialize -> deserialize -> serialize is a fixpoint
            assert frame_to_json(rebuilt) == wire

    @pytest.mark.parametrize("seed", range(20))
    def test_random_frame_fixpoint(self, seed):
        rng = random.Random(seed)
        kind = rng.choice(protocol.FRAME_KINDS)
        row = lambda: {"node_id": rng.randint(1, 99),  # noqa: E731
                       "label": rng.choice(["a", "b"]),
                       "attrs": {"year": rng.randint(2000, 2010)}}
        if kind == "snapshot":
            frame = DeltaFrame(
                seq=rng.randint(1, 9), kind="snapshot",
                action=rng.choice([None, "open", "pivot"]),
                coalesced=rng.randint(0, 5),
                etable=rng.choice([None, {"rows": [row()], "columns": []}]),
            )
        else:
            frame = DeltaFrame(
                seq=rng.randint(1, 9), kind="delta",
                action=rng.choice([None, "filter", "sort"]),
                coalesced=rng.randint(1, 5),
                pattern={"nodes": []},
                columns=rng.choice(
                    [None, ({"kind": "BASE", "key": "year"},)]),
                removed=tuple(rng.sample(range(50), rng.randint(0, 4))),
                rows=tuple(row() for _ in range(rng.randint(0, 3))),
                order=tuple(rng.sample(range(100), rng.randint(0, 6))),
                total_rows=rng.randint(0, 40),
            )
        wire = frame_to_json(frame)
        rebuilt = frame_from_json(wire)
        assert rebuilt == frame
        assert frame_to_json(rebuilt) == wire

    def test_rejected_envelopes(self):
        good = frame_to_json(DeltaFrame(seq=1, kind="snapshot", etable=None))
        for mutate in [
            lambda p: p.pop("version"),
            lambda p: p.__setitem__("version", 99),
            lambda p: p.__setitem__("version", True),
            lambda p: p.__setitem__("version", "1"),
            lambda p: p.__setitem__("kind", "diff"),
            lambda p: p.pop("seq"),
            lambda p: p.__setitem__("seq", "one"),
        ]:
            payload = dict(good)
            mutate(payload)
            with pytest.raises(ProtocolError):
                frame_from_json(payload)
        with pytest.raises(ProtocolError):
            frame_from_json("not a dict")
        delta = frame_to_json(DeltaFrame(
            seq=2, kind="delta", pattern={}, order=(1,),
            rows=({"node_id": 1},), total_rows=1))
        bad_rows = dict(delta)
        bad_rows["rows"] = [["not", "a", "dict"]]
        with pytest.raises(ProtocolError):
            frame_from_json(bad_rows)
        bad_order = dict(delta)
        bad_order["order"] = [1.5]
        with pytest.raises(ProtocolError):
            frame_from_json(bad_order)


class TestFolding:
    @pytest.mark.parametrize("engine", ["planned", "incremental"])
    def test_fold_matches_full_payload_after_every_action(self, toy, engine):
        stats = StreamStats()
        source = FrameSource(stats)
        state = None
        for action, payload in _walk(toy, engine=engine):
            frame = source.frame_for(payload, action=action)
            # Fold the *wire form* so serialization is part of the loop.
            state = fold_frame(state, frame_from_json(frame_to_json(frame)))
            assert state == payload, f"diverged after {action}"
        assert stats.deltas > 0 and stats.snapshots > 0

    def test_fold_is_idempotent(self, toy):
        source = FrameSource()
        state = None
        for action, payload in _walk(toy):
            frame = source.frame_for(payload, action=action)
            state = fold_frame(state, frame)
            assert fold_frame(state, frame) == state

    def test_delta_before_snapshot_rejected(self):
        frame = DeltaFrame(seq=1, kind="delta", pattern={}, order=(),
                           rows=(), total_rows=0)
        with pytest.raises(ProtocolError):
            fold_frame(None, frame)

    def test_order_referencing_unknown_row_rejected(self, toy):
        walk = iter(_walk(toy))
        _, payload = next(walk)
        bad = DeltaFrame(seq=2, kind="delta", pattern=payload["pattern"],
                         order=(999999,), rows=(), total_rows=1)
        with pytest.raises(ProtocolError):
            fold_frame(payload, bad)


class TestCoalescing:
    def test_coalesced_frame_jumps_straight_to_latest(self, toy):
        payloads = [payload for _, payload in _walk(toy)]
        # The client saw only the first state; everything after is backlog.
        base = payloads[0]
        stats = StreamStats()
        merged = coalesce_frame(base, payloads[-1], seq=len(payloads),
                                action="seeall", coalesced=len(payloads) - 1,
                                stats=stats)
        assert merged.coalesced == len(payloads) - 1
        assert fold_frame(base, merged) == payloads[-1]
        assert stats.coalesce_events == 1

    def test_coalesce_falls_back_to_snapshot_when_delta_is_larger(self, toy):
        payloads = [payload for _, payload in _walk(toy)]
        # open -> seeall after pivot+revert: nearly every row differs, so
        # the merged delta cannot undercut the snapshot.
        stats = StreamStats()
        merged = coalesce_frame(payloads[0], payloads[-1], seq=9,
                                action="seeall", coalesced=8, stats=stats)
        snapshot_bytes = payload_bytes(frame_to_json(DeltaFrame(
            seq=9, kind="snapshot", action="seeall", coalesced=8,
            etable=payloads[-1])))
        assert payload_bytes(frame_to_json(merged)) <= snapshot_bytes
        if merged.kind == "snapshot":
            assert stats.coalesce_snapshots == 1


def _run(coro):
    return asyncio.run(coro)


class TestStreamHub:
    def _manager(self, toy, **kwargs):
        return SessionManager(toy.schema, toy.graph, **kwargs)

    def test_subscribe_snapshot_then_ordered_deltas(self, toy):
        manager = self._manager(toy)
        sid = manager.create_session()
        manager.apply(sid, "open", {"type": "Papers"})

        async def scenario():
            hub = StreamHub(manager, asyncio.get_running_loop())
            subscriber = await hub.subscribe(sid)
            loop = asyncio.get_running_loop()
            for action, params in SCRIPT[1:4]:
                await loop.run_in_executor(
                    None, manager.apply, sid, action, params)
            state = None
            folded = 0
            while folded < 3:
                await asyncio.wait_for(subscriber.event.wait(), timeout=10)
                popped = subscriber.pop()
                if popped is None:
                    continue
                frame, _after = popped
                state = fold_frame(state, frame)
                folded += frame.coalesced
            hub.unsubscribe(subscriber)
            assert hub.open_streams() == 0
            return state, hub.stats_payload()

        state, stats = _run(scenario())
        expected = manager.with_session(
            sid, lambda s: etable_to_json(s.current))
        assert state == expected
        assert stats["frames"] >= 4  # snapshot + one per action
        assert stats["streamed_sessions"] == 0  # cleaned up on unsubscribe

    def test_backpressure_coalesces_into_bounded_queue(self, toy):
        manager = self._manager(toy)
        sid = manager.create_session()
        manager.apply(sid, "open", {"type": "Papers"})

        async def scenario():
            hub = StreamHub(manager, asyncio.get_running_loop(), max_queue=2)
            subscriber = await hub.subscribe(sid)
            # Consume the subscribe-time snapshot, then stop reading.
            await asyncio.wait_for(subscriber.event.wait(), timeout=10)
            base_frame, _ = subscriber.pop()
            state = fold_frame(None, base_frame)
            loop = asyncio.get_running_loop()
            for action, params in SCRIPT[1:]:
                await loop.run_in_executor(
                    None, manager.apply, sid, action, params)
            # Let every queued observer callback land before draining.
            for _ in range(20):
                await asyncio.sleep(0.01)
                if hub.stats.frames >= len(SCRIPT):
                    break
            assert len(subscriber.queue) <= 2
            folded = 0
            while folded < len(SCRIPT) - 1:
                popped = subscriber.pop()
                if popped is None:
                    await asyncio.wait_for(subscriber.event.wait(),
                                           timeout=10)
                    continue
                frame, _after = popped
                state = fold_frame(state, frame)
                folded += frame.coalesced
            assert hub.stats.coalesce_events > 0
            hub.unsubscribe(subscriber)
            return state

        state = _run(scenario())
        expected = manager.with_session(
            sid, lambda s: etable_to_json(s.current))
        assert state == expected

    def test_subscribe_unknown_session_raises(self, toy):
        manager = self._manager(toy)

        async def scenario():
            hub = StreamHub(manager, asyncio.get_running_loop())
            with pytest.raises(UnknownSession):
                await hub.subscribe("ghost")
            assert hub.open_streams() == 0

        _run(scenario())

    def test_subscribe_requires_matching_token(self, toy):
        manager = self._manager(toy, require_auth=True)
        sid = manager.create_session()
        token = manager.session_auth_token(sid)
        manager.apply(sid, "open", {"type": "Papers"}, auth_token=token)

        async def scenario():
            hub = StreamHub(manager, asyncio.get_running_loop())
            with pytest.raises(AuthError):
                await hub.subscribe(sid, auth_token="wrong")
            subscriber = await hub.subscribe(sid, auth_token=token)
            hub.unsubscribe(subscriber)

        _run(scenario())

    async def _next_frame_of_kind(self, subscriber, kind, timeout=10.0):
        while True:
            popped = subscriber.pop()
            if popped is None:
                await asyncio.wait_for(subscriber.event.wait(),
                                       timeout=timeout)
                continue
            frame, _after = popped
            if frame.kind == kind:
                return frame

    def test_close_session_pushes_terminal_closed_frame(self, toy):
        """Regression: close_session used to leave subscribers hanging —
        no terminal frame, no unsubscribe — so an SSE client blocked
        forever on a session that no longer existed."""
        manager = self._manager(toy)
        sid = manager.create_session()
        manager.apply(sid, "open", {"type": "Papers"})

        async def scenario():
            hub = StreamHub(manager, asyncio.get_running_loop())
            subscriber = await hub.subscribe(sid)
            snapshot = await self._next_frame_of_kind(subscriber, "snapshot")
            state = fold_frame(None, snapshot)
            await asyncio.get_running_loop().run_in_executor(
                None, manager.close_session, sid)
            closed = await self._next_frame_of_kind(subscriber, "closed")
            assert closed.action == "closed"
            assert closed.seq > snapshot.seq
            # Terminal frames carry no table data: folding is a no-op.
            assert fold_frame(state, closed) == state
            hub.unsubscribe(subscriber)
            assert hub.open_streams() == 0

        _run(scenario())

    def test_eviction_pushes_terminal_evicted_frame(self, toy, tmp_path):
        manager = self._manager(toy, max_sessions=1, ttl_seconds=None,
                                journal_dir=tmp_path / "j")
        alice = manager.create_session("alice")
        manager.apply(alice, "open", {"type": "Papers"})

        async def scenario():
            hub = StreamHub(manager, asyncio.get_running_loop())
            subscriber = await hub.subscribe(alice)
            await self._next_frame_of_kind(subscriber, "snapshot")
            # Capacity pressure evicts alice (LRU) from another thread.
            await asyncio.get_running_loop().run_in_executor(
                None, manager.create_session, "bob")
            closed = await self._next_frame_of_kind(subscriber, "closed")
            assert closed.action == "evicted"
            hub.unsubscribe(subscriber)

        _run(scenario())

    def test_closed_frame_survives_backlog_coalescing(self, toy):
        """The terminal frame must never be merged away by the
        slow-consumer path — it is the only end-of-session signal."""
        manager = self._manager(toy)
        sid = manager.create_session()
        manager.apply(sid, "open", {"type": "Papers"})

        async def scenario():
            hub = StreamHub(manager, asyncio.get_running_loop(), max_queue=1)
            subscriber = await hub.subscribe(sid)
            loop = asyncio.get_running_loop()
            # Overflow the queue without draining it, then close.
            for action, params in SCRIPT[1:5]:
                await loop.run_in_executor(
                    None, manager.apply, sid, action, params)
            await loop.run_in_executor(None, manager.close_session, sid)
            closed = await self._next_frame_of_kind(subscriber, "closed")
            assert closed.action == "closed"
            hub.unsubscribe(subscriber)

        _run(scenario())

    def test_closed_hub_drops_subscribers_and_ignores_actions(self, toy):
        manager = self._manager(toy)
        sid = manager.create_session()
        manager.apply(sid, "open", {"type": "Papers"})

        async def scenario():
            hub = StreamHub(manager, asyncio.get_running_loop())
            subscriber = await hub.subscribe(sid)
            hub.close()
            assert subscriber.closed
            frames_before = hub.stats.frames
            await asyncio.get_running_loop().run_in_executor(
                None, manager.apply, sid, "sort", {"column": "year"})
            await asyncio.sleep(0.05)
            assert hub.stats.frames == frames_before

        _run(scenario())
