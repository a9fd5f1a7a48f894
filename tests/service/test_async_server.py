"""HTTP frontend end-to-end: SSE streaming, auth, keep-alive, drain.

The request/response routes have their own end-to-end suite; these tests
cover what the asyncio server adds around them: delta frames pushed over
SSE, the per-session bearer token on every route including the stream,
keep-alive connection reuse, and graceful shutdown. They drive a live
localhost server through urllib for requests and a raw socket for the
SSE stream (urllib buffers, which defeats event streaming).
"""

import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import AsyncNavigationServer, fold_frame, frame_from_json
from repro.service.manager import SessionManager


@pytest.fixture()
def server(toy, tmp_path):
    manager = SessionManager(toy.schema, toy.graph,
                             journal_dir=tmp_path / "journals")
    server = AsyncNavigationServer(manager, port=0).start()
    yield server
    server.shutdown()
    manager.shutdown()


def _call(server, path, method="GET", body=None, token=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        server.url + path, data=data, method=method, headers=headers,
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


def _act(server, session_id, action, params=None, token=None):
    return _call(server, f"/v1/sessions/{session_id}/actions", "POST",
                 {"action": action, "params": params or {}}, token=token)


class _RawStream:
    """Raw-socket SSE reader collecting folded state on a thread."""

    def __init__(self, server, session_id, token=None):
        self.sock = socket.create_connection(
            (server.host, server.port), timeout=10)
        request = (f"GET /v1/sessions/{session_id}/stream HTTP/1.1\r\n"
                   f"Host: t\r\n")
        if token:
            request += f"Authorization: Bearer {token}\r\n"
        self.sock.sendall((request + "\r\n").encode())
        self.frames = []
        self.state = None
        self.folded = 0
        self.status = None
        self._lock = threading.Lock()
        threading.Thread(target=self._read, daemon=True).start()

    def _read(self):
        buf = b""
        in_headers = True
        while True:
            try:
                chunk = self.sock.recv(65536)
            except OSError:
                return
            if not chunk:
                return
            buf += chunk
            if in_headers:
                head, sep, buf = buf.partition(b"\r\n\r\n")
                if not sep:
                    buf = head
                    continue
                with self._lock:
                    self.status = int(head.split(b" ")[1])
                in_headers = False
            while b"\n\n" in buf:
                block, buf = buf.split(b"\n\n", 1)
                data = b"".join(line[5:].strip()
                                for line in block.split(b"\n")
                                if line.startswith(b"data:"))
                if not data:
                    continue
                frame = frame_from_json(json.loads(data))
                with self._lock:
                    self.state = fold_frame(self.state, frame)
                    self.frames.append(frame)
                    self.folded += frame.coalesced

    def wait_folded(self, count, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self.folded >= count:
                    return self.state
            time.sleep(0.005)
        raise AssertionError(f"folded {self.folded}/{count}")

    def wait_status(self, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self.status is not None:
                    return self.status
            time.sleep(0.005)
        raise AssertionError("no response headers")

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class TestRouteParity:
    def test_healthz_and_stats(self, server):
        status, body = _call(server, "/healthz")
        assert status == 200 and body["result"]["status"] == "ok"
        status, body = _call(server, "/v1/stats")
        assert status == 200 and "cache" in body["result"]
        assert "stream" in body["result"]
        assert body["result"]["stream"]["open_streams"] == 0

    def test_session_lifecycle_and_actions(self, server):
        status, body = _call(server, "/v1/sessions", "POST", {})
        assert status == 200
        sid = body["result"]["session_id"]
        status, body = _act(server, sid, "open", {"type": "Papers"})
        assert status == 200 and body["result"]["primary_type"] == "Papers"
        status, body = _call(server, f"/v1/sessions/{sid}/etable?limit=3")
        assert status == 200 and body["result"]["etable"]["returned"] <= 3
        status, body = _call(server, f"/v1/sessions/{sid}/history")
        assert status == 200 and len(body["result"]["lines"]) == 1
        status, body = _call(server, f"/v1/sessions/{sid}", "DELETE")
        assert status == 200 and body["result"]["closed"] == sid
        status, body = _call(server, "/v1/sessions/ghost", "DELETE")
        assert status == 404 and body["error_type"] == "unknown_session"

    def test_error_statuses(self, server):
        assert _call(server, "/nope")[0] == 404
        assert _call(server, "/v1/sessions/ghost/etable")[0] == 404
        status, body = _call(server, "/v1/sessions", "POST", {})
        sid = body["result"]["session_id"]
        status, body = _act(server, sid, "frobnicate")
        assert status == 400 and body["error_type"] == "protocol_error"
        # malformed JSON body
        request = urllib.request.Request(
            server.url + f"/v1/sessions/{sid}/actions",
            data=b"{nope", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value:
            assert excinfo.value.code == 400

    def test_keep_alive_reuses_connection(self, server):
        sock = socket.create_connection((server.host, server.port),
                                        timeout=10)
        try:
            for _ in range(3):
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                buf = b""
                while b"\r\n\r\n" not in buf:
                    buf += sock.recv(65536)
                head, _, rest = buf.partition(b"\r\n\r\n")
                assert b"200" in head.split(b"\r\n")[0]
                length = int(
                    [line for line in head.split(b"\r\n")
                     if line.lower().startswith(b"content-length")][0]
                    .split(b":")[1])
                while len(rest) < length:
                    rest += sock.recv(65536)
        finally:
            sock.close()


    def test_malformed_condition_is_a_typed_400_on_a_live_connection(
            self, server):
        """A condition field of the wrong type is answered with a typed
        400, and the keep-alive connection serves the next request."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=10)
        try:
            def call(method, path, body=None):
                connection.request(
                    method, path,
                    body=json.dumps(body).encode() if body is not None
                    else None,
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                return response.status, json.loads(response.read())

            sid = call("POST", "/v1/sessions", {})[1]["result"]["session_id"]
            assert call("POST", f"/v1/sessions/{sid}/actions",
                        {"action": "open", "params": {"type": "Papers"}}
                        )[0] == 200
            status, body = call(
                "POST", f"/v1/sessions/{sid}/actions",
                {"action": "filter", "params": {"condition": {
                    "kind": "in", "attribute": "year", "values": 5}}})
            assert status == 400 and body["error_type"] == "protocol_error"
            status, body = call("GET", f"/v1/sessions/{sid}/history")
            assert status == 200 and len(body["result"]["lines"]) == 1
        finally:
            connection.close()


class TestStreaming:
    def test_stream_folds_to_etable_after_each_action(self, server):
        sid = _call(server, "/v1/sessions", "POST", {})[1]["result"]["session_id"]
        stream = _RawStream(server, sid)
        assert stream.wait_status() == 200
        script = [
            ("open", {"type": "Papers"}),
            ("filter", {"condition": {"kind": "compare", "attribute": "year",
                                      "op": ">", "value": 2001}}),
            ("sort", {"column": "year"}),
            ("pivot", {"column": "Papers->Authors"}),
            ("hide", {"column": "name"}),
        ]
        for index, (action, params) in enumerate(script, start=1):
            status, body = _act(server, sid, action, params)
            assert status == 200, body
            folded = stream.wait_folded(index)
            fetched = _call(
                server, f"/v1/sessions/{sid}/etable"
            )[1]["result"]["etable"]
            assert folded == fetched, f"diverged after {action}"
        kinds = [frame.kind for frame in stream.frames]
        assert "delta" in kinds and "snapshot" in kinds
        status, body = _call(server, "/v1/stats")
        assert body["result"]["stream"]["open_streams"] == 1
        stream.close()

    def test_stream_unknown_session_404(self, server):
        stream = _RawStream(server, "ghost")
        assert stream.wait_status() == 404
        stream.close()

    def test_two_subscribers_see_the_same_frames(self, server):
        sid = _call(server, "/v1/sessions", "POST", {})[1]["result"]["session_id"]
        _act(server, sid, "open", {"type": "Papers"})
        first = _RawStream(server, sid)
        second = _RawStream(server, sid)
        first.wait_status(), second.wait_status()
        _act(server, sid, "sort", {"column": "year"})
        state_a = first.wait_folded(1)
        state_b = second.wait_folded(1)
        assert state_a == state_b
        first.close(), second.close()

    def test_delete_session_ends_stream_with_closed_frame(self, server):
        """Regression: closing a session never told its subscribers — the
        SSE connection just hung. It must now receive a terminal
        ``closed`` frame and the server must end the stream."""
        sid = _call(server, "/v1/sessions", "POST", {})[1]["result"]["session_id"]
        _act(server, sid, "open", {"type": "Papers"})
        stream = _RawStream(server, sid)
        assert stream.wait_status() == 200
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:  # subscribe-time snapshot
            with stream._lock:
                if stream.frames:
                    break
            time.sleep(0.01)

        status, _ = _call(server, f"/v1/sessions/{sid}", "DELETE")
        assert status == 200

        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with stream._lock:
                if stream.frames and stream.frames[-1].kind == "closed":
                    break
            time.sleep(0.01)
        else:
            raise AssertionError("stream never saw the closed frame")
        with stream._lock:
            assert stream.frames[-1].action == "closed"
        # The server ends the SSE response after the terminal frame, so
        # the subscriber count must drain to zero without client action.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            _, body = _call(server, "/v1/stats")
            if body["result"]["stream"]["open_streams"] == 0:
                break
            time.sleep(0.01)
        else:
            raise AssertionError("server never released the stream")
        stream.close()


class TestAuthAndQuota:
    @pytest.fixture()
    def auth_server(self, toy, tmp_path):
        manager = SessionManager(
            toy.schema, toy.graph, journal_dir=tmp_path / "journals",
            require_auth=True, quota_actions=4, quota_window=3600.0,
        )
        server = AsyncNavigationServer(manager, port=0).start()
        yield server
        server.shutdown()
        manager.shutdown()

    def test_actions_need_the_minted_token(self, auth_server):
        status, body = _call(auth_server, "/v1/sessions", "POST", {})
        sid = body["result"]["session_id"]
        token = body["result"]["auth_token"]
        assert token
        status, body = _act(auth_server, sid, "open", {"type": "Papers"})
        assert status == 401 and body["error_type"] == "auth_error"
        status, body = _act(auth_server, sid, "open", {"type": "Papers"},
                            token="wrong")
        assert status == 401
        status, body = _act(auth_server, sid, "open", {"type": "Papers"},
                            token=token)
        assert status == 200
        # reads are gated too
        assert _call(auth_server, f"/v1/sessions/{sid}/etable")[0] == 401
        assert _call(auth_server, f"/v1/sessions/{sid}/etable",
                     token=token)[0] == 200

    def test_stream_needs_the_token(self, auth_server):
        body = _call(auth_server, "/v1/sessions", "POST", {})[1]
        sid, token = body["result"]["session_id"], body["result"]["auth_token"]
        denied = _RawStream(auth_server, sid)
        assert denied.wait_status() == 401
        denied.close()
        granted = _RawStream(auth_server, sid, token=token)
        assert granted.wait_status() == 200
        granted.close()

    def test_quota_429_after_budget_spent(self, auth_server):
        body = _call(auth_server, "/v1/sessions", "POST", {})[1]
        sid, token = body["result"]["session_id"], body["result"]["auth_token"]
        for _ in range(4):
            status, _ = _act(auth_server, sid, "open", {"type": "Papers"},
                             token=token)
            assert status == 200
        status, body = _act(auth_server, sid, "open", {"type": "Papers"},
                            token=token)
        assert status == 429 and body["error_type"] == "quota_exceeded"
        # reads are not metered
        assert _call(auth_server, f"/v1/sessions/{sid}/etable",
                     token=token)[0] == 200

    def test_delete_needs_the_token(self, auth_server):
        body = _call(auth_server, "/v1/sessions", "POST", {})[1]
        sid, token = body["result"]["session_id"], body["result"]["auth_token"]
        assert _call(auth_server, f"/v1/sessions/{sid}", "DELETE")[0] == 401
        assert _call(auth_server, f"/v1/sessions/{sid}", "DELETE",
                     token=token)[0] == 200


class TestGracefulShutdown:
    def test_drain_lets_inflight_request_finish(self, toy, tmp_path):
        manager = SessionManager(toy.schema, toy.graph,
                                 journal_dir=tmp_path / "journals")
        original_stats = manager.stats

        def slow_stats():
            time.sleep(0.6)
            return original_stats()

        manager.stats = slow_stats
        server = AsyncNavigationServer(manager, port=0).start()
        results = {}

        def request():
            results["response"] = _call(server, "/v1/stats")

        worker = threading.Thread(target=request)
        worker.start()
        time.sleep(0.2)  # let the slow request begin dispatch
        started = time.monotonic()
        server.shutdown()
        drained_in = time.monotonic() - started
        worker.join(timeout=5)
        status, body = results["response"]
        assert status == 200 and "cache" in body["result"]
        assert drained_in >= 0.2  # shutdown actually waited for the request
        manager.shutdown()

    def test_async_shutdown_closes_streams(self, toy, tmp_path):
        manager = SessionManager(toy.schema, toy.graph,
                                 journal_dir=tmp_path / "journals")
        server = AsyncNavigationServer(manager, port=0).start()
        sid = _call(server, "/v1/sessions", "POST", {})[1]["result"]["session_id"]
        _act(server, sid, "open", {"type": "Papers"})
        stream = _RawStream(server, sid)
        assert stream.wait_status() == 200
        server.shutdown()
        # The SSE socket must be closed by the server, not left hanging.
        deadline = time.monotonic() + 5
        closed = False
        while time.monotonic() < deadline:
            try:
                if stream.sock.recv(1) == b"":
                    closed = True
                    break
            except OSError:
                closed = True
                break
        assert closed
        stream.close()
        manager.shutdown()

    def test_async_shutdown_with_idle_keep_alive_connection(self, toy,
                                                            caplog):
        # An idle keep-alive connection must be closed by the drain, not
        # left for asyncio.run() to cancel mid-read (which logs a
        # CancelledError traceback on the asyncio logger).
        manager = SessionManager(toy.schema, toy.graph)
        server = AsyncNavigationServer(manager, port=0).start()
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200")
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                server.shutdown()
        manager.shutdown()
        errors = [record for record in caplog.records
                  if record.name == "asyncio"
                  and record.levelno >= logging.ERROR]
        assert errors == [], [record.getMessage() for record in errors]
