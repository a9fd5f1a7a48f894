"""Delta-frame construction, coalescing, and client-side folding.

Pure functions over the JSON payloads of
:func:`repro.service.protocol.etable_to_json` — no sockets, no asyncio —
so the same code runs in the hub (server side), in the fuzzer's lockstep
folding clients, and in the bench's bytes-on-wire accounting.

The contract both sides share: *folding the frame stream reproduces the
full ETable payload.* A ``snapshot`` frame replaces the client's state
outright; a ``delta`` frame removes, upserts, and reorders rows in place.
Frames are **idempotent**: folding the frame for action N onto a state
that already reflects action N yields that same state — which is what
makes the subscribe-time snapshot race-free (a frame queued concurrently
with the snapshot can be folded harmlessly).

Frame building diffs the previous and new payloads row by row: a row
goes into a delta frame when it is new or any of its serialized cells
changed. Rows are the positional version-2 lists of
:func:`~repro.service.protocol.etable_to_json`, keyed by their first
item, the node id.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ProtocolError
from repro.service.protocol import DeltaFrame, encode, frame_to_json


def payload_bytes(obj: Any) -> int:
    """Wire size of a JSON value, as :func:`encode` ships it over SSE."""
    return len(encode(obj))


def _column_shape(payload: dict[str, Any]) -> list[tuple]:
    """Column identity minus the hidden flag (hidden toggles are deltas)."""
    return [
        (column["kind"], column["key"], column["display"], column["type"])
        for column in payload["columns"]
    ]


class StreamStats:
    """Counters for one hub (or one fuzzer pipe). Single-thread use."""

    def __init__(self) -> None:
        self.frames = 0
        self.snapshots = 0
        self.deltas = 0
        self.coalesce_events = 0
        self.coalesce_snapshots = 0

    def payload(self) -> dict[str, int]:
        return {
            "frames": self.frames,
            "snapshots": self.snapshots,
            "deltas": self.deltas,
            "coalesce_events": self.coalesce_events,
            "coalesce_snapshots": self.coalesce_snapshots,
        }


def build_frame(
    seq: int,
    prev: dict[str, Any] | None,
    new: dict[str, Any] | None,
    action: str | None = None,
    coalesced: int = 1,
    stats: StreamStats | None = None,
) -> DeltaFrame:
    """Diff two full ETable payloads into one frame.

    Emits a snapshot when there is nothing to diff against, when the table
    changed structurally (different primary type or column shape — open /
    pivot / see-all), or when either side has no open table; otherwise a
    delta carrying removed ids, changed rows, and the new display order.
    """
    if stats is not None:
        stats.frames += 1
    structural = (
        prev is None
        or new is None
        or prev["primary_type"] != new["primary_type"]
        or _column_shape(prev) != _column_shape(new)
    )
    if structural:
        if stats is not None:
            stats.snapshots += 1
        return DeltaFrame(seq=seq, kind="snapshot", action=action,
                          coalesced=coalesced, etable=new)
    prev_rows = {row[0]: row for row in prev["rows"]}
    order = [row[0] for row in new["rows"]]
    changed: list[list[Any]] = []
    for row in new["rows"]:
        if prev_rows.get(row[0]) != row:
            changed.append(row)
    present = set(order)
    removed = [nid for nid in prev_rows if nid not in present]
    columns = None
    if prev["columns"] != new["columns"]:
        columns = tuple(new["columns"])  # hidden flags toggled (hide/show)
    # Unchanged pattern / display order are encoded as None and dropped
    # from the wire form; fold_frame falls back to the client's state.
    pattern = new["pattern"] if prev["pattern"] != new["pattern"] else None
    same_order = order == [row[0] for row in prev["rows"]]
    if stats is not None:
        stats.deltas += 1
    return DeltaFrame(
        seq=seq,
        kind="delta",
        action=action,
        coalesced=coalesced,
        pattern=pattern,
        columns=columns,
        removed=tuple(removed),
        rows=tuple(changed),
        order=None if same_order else tuple(order),
        total_rows=new["total_rows"],
    )


def coalesce_frame(
    base: dict[str, Any] | None,
    latest: dict[str, Any] | None,
    seq: int,
    action: str | None,
    coalesced: int,
    stats: StreamStats | None = None,
) -> DeltaFrame:
    """Merge a backlog into one frame: diff what the client *has* against
    the latest state, skipping every intermediate frame.

    The backpressure fallback lives here: when the merged delta would ship
    at least as many bytes as a plain snapshot (a slow consumer that missed
    so much that most rows changed), send the snapshot instead — the
    stream never buffers or ships more than one full table per consumer.
    """
    frame = build_frame(seq, base, latest, action=action, coalesced=coalesced)
    if stats is not None:
        stats.frames += 1
        stats.coalesce_events += 1
    if frame.kind == "delta":
        snapshot = DeltaFrame(seq=seq, kind="snapshot", action=action,
                              coalesced=coalesced, etable=latest)
        if (payload_bytes(frame_to_json(frame))
                >= payload_bytes(frame_to_json(snapshot))):
            frame = snapshot
    if stats is not None:
        if frame.kind == "snapshot":
            stats.snapshots += 1
            stats.coalesce_snapshots += 1
        else:
            stats.deltas += 1
    return frame


def fold_frame(
    state: dict[str, Any] | None, frame: DeltaFrame
) -> dict[str, Any] | None:
    """Fold one frame into client-side state; returns the new full payload.

    The result is shaped exactly like :func:`etable_to_json` with no
    pagination, so a lockstep client can compare it ``==`` against a fresh
    ``GET .../etable``. Row lists are shared with the frame (clients must
    treat folded state as read-only).
    """
    if frame.kind == "snapshot":
        return frame.etable
    if frame.kind == "closed":
        # Terminal frame: the session ended server-side. Carries no table
        # data; the client keeps whatever state it last folded.
        return state
    if state is None:
        raise ProtocolError("delta frame received before any snapshot")
    rows_by_id = {row[0]: row for row in state["rows"]}
    for node_id in frame.removed:
        rows_by_id.pop(node_id, None)
    for row in frame.rows:
        rows_by_id[row[0]] = row
    if frame.order is None:
        # Order unchanged: keep the state's display order (removals have
        # already been applied to rows_by_id, so just skip the gaps).
        rows = [
            rows_by_id[row[0]]
            for row in state["rows"]
            if row[0] in rows_by_id
        ]
    else:
        try:
            rows = [rows_by_id[node_id] for node_id in frame.order]
        except KeyError as error:
            raise ProtocolError(
                f"delta frame order references unknown row {error}"
            ) from None
    columns = (
        [dict(column) for column in frame.columns]
        if frame.columns is not None
        else state["columns"]
    )
    return {
        "version": state["version"],
        "primary_type": state["primary_type"],
        "pattern": (
            frame.pattern if frame.pattern is not None else state["pattern"]
        ),
        "columns": columns,
        "total_rows": frame.total_rows,
        "offset": 0,
        "returned": len(rows),
        "rows": rows,
    }


class FrameSource:
    """Per-session frame factory: remembers the last published payload.

    Owned by the hub's event-loop thread (or a single fuzzer thread); not
    thread-safe by design.
    """

    def __init__(self, stats: StreamStats | None = None) -> None:
        self.seq = 0
        self.last_payload: dict[str, Any] | None = None
        self.stats = stats if stats is not None else StreamStats()

    def snapshot(self, payload: dict[str, Any] | None,
                 action: str | None = None,
                 coalesced: int = 0) -> DeltaFrame:
        """A full-state frame (subscribe time); resets the diff baseline."""
        self.seq += 1
        self.last_payload = payload
        self.stats.frames += 1
        self.stats.snapshots += 1
        return DeltaFrame(seq=self.seq, kind="snapshot", action=action,
                          coalesced=coalesced, etable=payload)

    def closed(self, event: str = "closed") -> DeltaFrame:
        """The terminal frame for a closed/evicted session.

        ``action`` carries the lifecycle event name so clients can tell a
        deliberate close from LRU eviction; no table data rides along.
        """
        self.seq += 1
        self.stats.frames += 1
        return DeltaFrame(seq=self.seq, kind="closed", action=event,
                          coalesced=0)

    def frame_for(self, payload: dict[str, Any] | None,
                  action: str | None = None) -> DeltaFrame:
        """The frame for one just-applied action; advances the baseline."""
        self.seq += 1
        frame = build_frame(self.seq, self.last_payload, payload,
                            action=action, stats=self.stats)
        self.last_payload = payload
        return frame
