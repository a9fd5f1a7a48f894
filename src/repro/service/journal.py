"""Durable per-session action journal with cheap replay.

Browsing sessions are state machines driven by small, deterministic
actions; persisting the *actions* (not the results) makes session state
durable at almost no cost. Each accepted mutating action is appended to an
append-only JSON-lines file; on the session's first request after an
eviction, a crash, a migration or a restart, the manager replays the file
through the same :func:`repro.service.protocol.apply_action` dispatch that
served it live, and every re-executed pattern rides the shared prefix-reuse
cache — recovery is a sequence of cache hits plus delta joins, not a cold
re-computation.

Record shapes (one JSON object per line)::

    {"type": "meta", "version": 1, "session_id": "...", "crc": 3735928559}
    {"type": "action", "seq": 3, "action": "filter", "params": {...}, ...}
    {"type": "checkpoint", "seq": 7, "history": [<history entries>], ...}
    {"type": "quota", "used": 9, "window_expires_at": 1754550000.0, ...}

**Every record carries a CRC32.** The trailing ``"crc"`` key checksums
the record's own serialized bytes, so a flipped byte that still parses as
JSON (bit rot, a fault-injected corruption) is caught instead of silently
replayed into a diverged session. Old journals without checksums still
replay — the field is verified only when present. On open, a journal
whose middle is damaged recovers to the longest valid prefix; the
damaged suffix is quarantined to ``<session>.journal.corrupt`` for
forensics rather than deleted.

**Revert truncates.** A revert makes every action after the reverted step
dead weight: replaying them only to revert away from them again would make
the journal — and recovery time — grow forever under the paper's
revert-heavy browsing behavior (Figure 1's history panel). Instead of
appending the revert, the journal is atomically rewritten to a single
*checkpoint* record carrying the full serialized history (which still
contains the revert entries — the user's trail is part of the state).
Replaying a checkpoint restores that exact history list and re-executes
only the final pattern, so a replayed session is bit-identical to the one
that crashed.

**Long sessions compact too.** A session that never reverts would still
grow its journal (and replay cost) without bound, so the manager
checkpoints append-only journals every N mutating actions
(``SessionManager(compact_every=N)``); :attr:`ActionJournal.
actions_since_checkpoint` tracks the trigger across restarts. Compaction
reuses the same atomic write-tmp-then-replace path as reverts: a crash
mid-checkpoint leaves either the complete old journal (plus a stale
``.tmp`` that the next open removes) or the complete new one — never a
half-written state — so recovery is bit-identical either way.

Torn tails are expected: a crash can cut the last line mid-write. Readers
keep every record up to the first undecodable line and ignore the tail, so
a killed session restarts from its last durable action.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any, Iterable

from repro.errors import JournalCorrupt
from repro.core.session import EtableSession
from repro.service import faults, protocol

JOURNAL_SUFFIX = ".journal"
JOURNAL_VERSION = 1

# Transient write failures (including injected ones) are retried this
# many times before the error escapes to the manager, which then flips
# the session read-only ("degraded") instead of crashing the worker.
_WRITE_ATTEMPTS = 5


class ActionJournal:
    """Append-only journal of one session's accepted mutating actions."""

    def __init__(self, path: Path | str, session_id: str,
                 fsync: bool = False,
                 auth_token: str | None = None) -> None:
        self.path = Path(path)
        self.session_id = session_id
        self.fsync = fsync
        # The session's bearer token rides in the meta record so a resumed
        # session keeps the token its client already holds. Opening an
        # existing journal recovers the persisted token (overriding the
        # argument); a pre-auth journal keeps the freshly minted one.
        self.auth_token = auth_token
        self.seq = 0
        self._handle = None
        # Mutating actions appended since the last checkpoint (or journal
        # creation): the manager's compaction trigger. Restored on resume by
        # counting action records after the last checkpoint, so the policy
        # holds across restarts.
        self.actions_since_checkpoint = 0
        # A crash between writing the checkpoint tmp file and the atomic
        # replace leaves a stale sibling; the journal itself is still the
        # complete pre-checkpoint state, so drop the leftover.
        stale_tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        if stale_tmp.exists():
            stale_tmp.unlink()
        # Records recovered from an existing file, for the resume path to
        # replay without re-reading the file. If the file was damaged
        # mid-way, ``quarantined`` names the sibling holding the bytes
        # that did not survive recovery.
        self.recovered_records: list[dict[str, Any]] = []
        self.quarantined: Path | None = None
        if self.path.exists():
            records, durable_length, max_seq, corruption = _scan(self.path)
            self.recovered_records = records
            self.seq = max_seq
            for record in records:
                if record.get("type") == "action":
                    self.actions_since_checkpoint += 1
                elif record.get("type") == "checkpoint":
                    self.actions_since_checkpoint = 0
                elif record.get("type") == "meta" and record.get("auth_token"):
                    self.auth_token = str(record["auth_token"])
            if corruption is not None:
                # Mid-file damage (not a torn tail): resume from the
                # longest valid prefix, but keep the damaged suffix on
                # disk for forensics instead of silently deleting it.
                raw = self.path.read_bytes()
                self.quarantined = Path(str(self.path) + ".corrupt")
                self.quarantined.write_bytes(raw[durable_length:])
            # A crash can leave a torn (or garbled) tail after the last
            # durable record. Appending onto it would weld the next record
            # to the partial line and silently lose it on the following
            # restart — truncate to the durable boundary first.
            if durable_length < self.path.stat().st_size:
                with self.path.open("r+b") as handle:
                    handle.truncate(durable_length)
            self._handle = self.path.open("a", encoding="utf-8")
            if not records:
                # Nothing durable survived (even the meta record was
                # damaged): restart the journal with a well-formed head.
                self._write(self._meta_record())
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
            self._write(self._meta_record())

    # ------------------------------------------------------------------
    def record_action(self, action: str, params: dict[str, Any]) -> None:
        """Append one accepted action (call only after it succeeded)."""
        self.seq += 1
        self.actions_since_checkpoint += 1
        self._write({"type": "action", "seq": self.seq, "action": action,
                     "params": params})

    def record_quota(self, used: int, window_expires_at: float) -> None:
        """Persist quota bookkeeping for a session leaving memory.

        Written when a throttled session is closed, evicted, or drained so
        that resurrection (same process or another fleet worker) does not
        grant a fresh quota window. Wall-clock expiry, not ``monotonic()``:
        the record must mean the same thing in a different process.
        """
        self._write({"type": "quota", "used": int(used),
                     "window_expires_at": float(window_expires_at)})

    def checkpoint(self, history_payload: list[dict[str, Any]]) -> None:
        """Atomically replace the journal with one checkpoint record.

        Called after a successful revert — and periodically by the
        manager's compaction policy: the serialized history (which includes
        any revert entries) *is* the session state, so the journal shrinks
        to meta + checkpoint instead of growing forever.
        """
        self.seq += 1
        tmp_path = self.path.with_suffix(self.path.suffix + ".tmp")
        meta_line = _encode(self._meta_record()) + "\n"
        ckpt_line = _encode({"type": "checkpoint", "seq": self.seq,
                             "history": history_payload}) + "\n"
        last_error: OSError | None = None
        for _ in range(_WRITE_ATTEMPTS):
            try:
                with tmp_path.open("w", encoding="utf-8") as handle:
                    handle.write(meta_line)
                    handle.write(ckpt_line)
                    faults.fire("journal.write")
                    handle.flush()
                    faults.fire("journal.fsync")
                    os.fsync(handle.fileno())
                last_error = None
                break
            except OSError as error:
                # "w" mode rewrites the tmp file whole on the next try,
                # so a failed attempt leaves nothing to clean up yet.
                last_error = error
        if last_error is not None:
            try:
                tmp_path.unlink()
            except OSError:
                pass
            raise last_error
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        try:
            os.replace(tmp_path, self.path)
            # Only a *durable* checkpoint resets the compaction trigger; a
            # failed replace leaves the old records on disk, so they must
            # still count toward the next attempt.
            self.actions_since_checkpoint = 0
        finally:
            # Reopen even when the replace failed: the journal file is then
            # still the old one, and later appends must keep working.
            self._handle = self.path.open("a", encoding="utf-8")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __del__(self) -> None:
        # Safety net only — the manager closes journals on eviction/close
        # and shutdown(); this keeps an abandoned journal from leaking its
        # handle (and raising ResourceWarning under `python -X dev`).
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    # ------------------------------------------------------------------
    def _meta_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {"type": "meta", "version": JOURNAL_VERSION,
                                  "session_id": self.session_id}
        if self.auth_token is not None:
            record["auth_token"] = self.auth_token
        return record

    def _write(self, record: dict[str, Any]) -> None:
        assert self._handle is not None
        line = _encode(record) + "\n"
        last_error: OSError | None = None
        for _ in range(_WRITE_ATTEMPTS):
            durable = os.fstat(self._handle.fileno()).st_size
            try:
                # mangle() is the silent-corruption injection point: the
                # damaged bytes are written *successfully* on purpose, so
                # the CRC path has something realistic to catch later.
                self._handle.write(faults.mangle("journal.write", line))
                faults.fire("journal.write")
                self._handle.flush()
                faults.fire("journal.fsync")
                if self.fsync:
                    os.fsync(self._handle.fileno())
                return
            except OSError as error:
                last_error = error
                self._rewind(durable)
        assert last_error is not None
        raise last_error

    def _rewind(self, durable: int) -> None:
        """Drop whatever a failed append left past the durable boundary.

        Closing the text handle first flushes any buffered partial line
        to the OS, so the byte-level truncate below removes *all* of the
        failed record — retrying then appends onto a clean boundary
        instead of welding onto a half-written line.
        """
        handle, self._handle = self._handle, None
        try:
            if handle is not None:
                handle.close()
        except OSError:
            pass  # the truncate below removes what the flush wrote
        with self.path.open("r+b") as raw:
            raw.truncate(durable)
        self._handle = self.path.open("a", encoding="utf-8")


def _dump(record: dict[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":"), default=str)


def _encode(record: dict[str, Any]) -> str:
    """Serialize ``record`` with a trailing CRC32 over its own bytes.

    The checksum covers the serialization *without* the ``crc`` key; the
    key is spliced in as the last member, so verification is: pop
    ``crc``, re-dump the (insertion-ordered) rest, compare. ``_dump``
    emits ASCII with stable float reprs, which makes that round trip
    byte-exact.
    """
    body = _dump(record)
    crc = zlib.crc32(body.encode("utf-8"))
    if body == "{}":  # no leading comma to splice after
        return f'{{"crc":{crc}}}'
    return f'{body[:-1]},"crc":{crc}}}'


def _crc_ok(record: dict[str, Any]) -> bool:
    """Verify (and strip) a record's checksum; un-checksummed is valid."""
    stored = record.pop("crc", None)
    if stored is None:
        return True  # a pre-checksum journal record: still replayable
    if isinstance(stored, bool) or not isinstance(stored, int):
        return False
    return zlib.crc32(_dump(record).encode("utf-8")) == stored


def _scan(
    path: Path | str,
) -> tuple[list[dict[str, Any]], int, int, tuple[int, str] | None]:
    """One pass over a journal file, tolerant of a torn tail.

    Returns ``(records, durable_byte_length, max_seq, corruption)``:
    every valid record (checksums verified and stripped), the byte
    offset where durable content ends, the highest ``seq`` seen, and —
    when an invalid line is *followed by* decodable content (real
    mid-file damage, not a crash artifact) — a ``(line_number, reason)``
    pair describing it. The lenient recovery path (``ActionJournal``)
    quarantines and continues; :func:`read_records` raises.
    """
    faults.fire("journal.read")
    raw = Path(path).read_bytes()
    lines = raw.split(b"\n")
    # Every element except the last was newline-terminated; the last is
    # either b"" (file ends with a newline) or an unterminated partial
    # line — never durable either way.
    terminated = lines[:-1]
    records: list[dict[str, Any]] = []
    durable_length = 0
    max_seq = 0
    corruption: tuple[int, str] | None = None
    for index, line in enumerate(terminated):
        if not line.strip():
            durable_length += len(line) + 1
            continue
        record: Any = None
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            record = None
        reason = None
        if not isinstance(record, dict) or "type" not in record:
            reason = f"undecodable record at line {index + 1}"
        elif not _crc_ok(record):  # also strips the crc key
            reason = f"checksum mismatch at line {index + 1}"
        if reason is not None:
            if any(rest.strip() for rest in terminated[index + 1:]):
                corruption = (index + 1, reason)
            # else: garbled final terminated line — an ordinary torn tail
            break
        records.append(record)
        durable_length += len(line) + 1
        try:
            max_seq = max(max_seq, int(record.get("seq", 0)))
        except (TypeError, ValueError):
            pass
    # ``tail`` (an unterminated partial line, if any) is never durable.
    return records, durable_length, max_seq, corruption


def read_records(path: Path | str) -> list[dict[str, Any]]:
    """All decodable records, stopping at a torn tail.

    A truncated or garbled trailing line is the expected signature of a
    crash mid-write and is silently dropped; garbage *before* later
    records means real corruption and raises :class:`JournalCorrupt`.
    Reading never repairs the file (opening an :class:`ActionJournal`
    does).
    """
    records, _durable_length, _max_seq, corruption = _scan(path)
    if corruption is not None:
        raise JournalCorrupt(f"{path}: {corruption[1]}")
    return records


def replay_records(session: EtableSession,
                   records: Iterable[dict[str, Any]]) -> int:
    """Re-apply journal records to a fresh session; returns actions applied.

    Checkpoints restore the serialized history wholesale (and re-execute
    only its final pattern); action records go through the exact protocol
    dispatch that produced them. Deterministic by construction: every
    protocol action is a pure function of session state and params.
    """
    applied = 0
    for record in records:
        kind = record.get("type")
        if kind in ("meta", "quota"):
            # Quota records are manager bookkeeping, not session state; the
            # manager's resume path reads them from recovered_records.
            continue
        if kind == "checkpoint":
            session.restore_history(
                protocol.history_from_json(record["history"])
            )
            applied += 1
        elif kind == "action":
            protocol.apply_action(session, record["action"],
                                  record.get("params", {}))
            applied += 1
        else:
            raise JournalCorrupt(f"unknown journal record type {kind!r}")
    return applied
