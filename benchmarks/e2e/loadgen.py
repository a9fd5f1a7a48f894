"""Closed-loop HTTP load: the client waits for its page before the next click.

The client is one browsing user on one keep-alive connection, on the
caller's thread. It is the only one: with two clients, the server's two
request threads took turns on the interpreter lock, and four runs of
identical requests cost the server 16 to 21 s of CPU time. An
interaction starts when the client sends a click (a mutating action) and
ends when it holds the new page: the ``GET .../etable`` page after the
action, or on a streaming workload the SSE frame for it, read from a
second connection. A page-read step is just its GET. Think time is zero.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass, field
from typing import Iterable
from urllib.parse import urlencode

from workloads import CLICK_PAGE, Session

REQUEST_TIMEOUT_S = 30.0
FRAME_TIMEOUT_S = 10.0


class RequestFailed(Exception):
    """A non-2xx reply, a transport error, or a timeout."""


@dataclass
class SessionRecord:
    session: Session
    ok: bool = False
    final_params: dict | None = None
    final_body: bytes | None = None
    frames: list[bytes] = field(default_factory=list)


@dataclass
class Tally:
    """What the client saw."""

    latencies_ms: list[float] = field(default_factory=list)
    interaction_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    request_s: float = 0.0
    records: list[SessionRecord] = field(default_factory=list)


class FrameReader:
    """One session's SSE stream, read by the client's own thread right
    after each click's reply: the socket buffers a frame that comes
    first, and no second thread has to be woken per interaction."""

    def __init__(self, port: int, session_id: str) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port),
                                              timeout=FRAME_TIMEOUT_S)
        self._sock.sendall(
            f"GET /v1/sessions/{session_id}/stream HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\n\r\n".encode("ascii")
        )
        self._buffer = b""
        self._head_read = False

    def _fill(self) -> None:
        try:
            chunk = self._sock.recv(65536)
        except OSError as error:  # a timeout included
            raise RequestFailed(f"SSE stream: {error}") from error
        if not chunk:
            raise RequestFailed("SSE stream ended early")
        self._buffer += chunk

    def next_frame(self) -> tuple[int, bytes]:
        """(bytes on the wire, JSON data) of the next frame."""
        if not self._head_read:
            while b"\r\n\r\n" not in self._buffer:
                self._fill()
            head, self._buffer = self._buffer.split(b"\r\n\r\n", 1)
            if not head.startswith(b"HTTP/1.1 200"):
                raise RequestFailed(f"SSE subscribe: {head[:200]!r}")
            self._head_read = True
        while True:
            while b"\n\n" not in self._buffer:
                self._fill()
            block, self._buffer = self._buffer.split(b"\n\n", 1)
            data = b"".join(line[5:].strip() for line in block.split(b"\n")
                            if line.startswith(b"data:"))
            if data:  # else a ": ping" comment
                return len(block) + 2, data

    def close(self) -> None:
        self._sock.close()


class Client:
    """One user: a keep-alive connection and, when streaming, SSE."""

    def __init__(self, port: int, stream: bool) -> None:
        self.port = port
        self.stream = stream
        self.tally = Tally()
        self._connection = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        self._connection.close()

    def _call(self, method: str, path: str, body: dict | None = None
              ) -> bytes:
        self.tally.attempted += 1
        payload = json.dumps(body).encode("utf-8") if body is not None \
            else None
        started = time.perf_counter()
        try:
            self._connection.request(
                method, path, body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = self._connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            self._connection.close()
            self._connection = self._connect()
            raise RequestFailed(f"{method} {path}: {error}") from error
        finally:
            self.tally.request_s += time.perf_counter() - started
        if response.status != 200:
            raise RequestFailed(f"{method} {path}: HTTP {response.status} "
                                f"{data[:200]!r}")
        return data

    def run_session(self, session: Session) -> None:
        record = SessionRecord(session)
        self.tally.records.append(record)
        base = f"/v1/sessions/{session.session_id}"
        reader: FrameReader | None = None
        try:
            self._call("POST", "/v1/sessions",
                       {"session_id": session.session_id})
            if self.stream:
                reader = FrameReader(self.port, session.session_id)
                self.tally.attempted += 1
                record.frames.append(reader.next_frame()[1])  # snapshot
            for step in session.steps:
                started = time.perf_counter()
                received = 0
                if step.action is not None:
                    received += len(self._call(
                        "POST", f"{base}/actions",
                        {"action": step.action, "params": step.params},
                    ))
                if step.action is not None and reader is not None:
                    self.tally.attempted += 1
                    wire, data = reader.next_frame()
                    received += wire
                    record.frames.append(data)
                else:
                    params = CLICK_PAGE if step.action is not None \
                        else step.params
                    body = self._call(
                        "GET", f"{base}/etable?{urlencode(params)}"
                    )
                    received += len(body)
                    record.final_params, record.final_body = params, body
                self.tally.latencies_ms.append(
                    1000.0 * (time.perf_counter() - started)
                )
                self.tally.interaction_bytes += received
            record.ok = True
        except RequestFailed:
            self.tally.failed += 1
        finally:
            try:
                self._call("DELETE", base)
            except RequestFailed:
                self.tally.failed += 1
                record.ok = False
            if reader is not None:
                reader.close()


def run_sessions(port: int, stream: bool,
                 sessions: Iterable[Session]) -> Tally:
    """One closed-loop client runs the sessions one after another."""
    client = Client(port, stream)
    try:
        for session in sessions:
            client.run_session(session)
    finally:
        client.close()
    return client.tally
