"""HTTP/SSE frontend for the navigation service (stdlib ``asyncio``).

The paper's prototype served its ETable web interface from a central
server (Section 6); this module is that server, speaking the JSON wire
protocol of :mod:`repro.service.protocol`. Most browsing sessions sit
*idle* between user actions but keep a live push channel open, so one
event loop owns every socket: requests are parsed on the loop, blocking
manager work is dispatched to a small thread pool, and ETable deltas are
*streamed* to subscribed clients over SSE instead of being re-fetched page
by page. An idle subscribed session costs one socket and a few queue
objects — no thread, no polling.

Routes (:func:`route_request`, plus the stream endpoint), mapped to the
Figure 9 interface components:

=============================================  ===========================
route                                          Figure 9 counterpart
=============================================  ===========================
``GET  /healthz``                              liveness + session counts
``GET  /v1/stats``                             cache/manager introspection
``GET  /v1/tables``                            component 1, table list
``POST /v1/sessions``                          a user opens the interface
``DELETE /v1/sessions/<id>``                   the user leaves
``POST /v1/sessions/<id>/actions``             components 2+4: every user
                                               action (open/filter/nfilter/
                                               pivot/single/seeall/sort/
                                               hide/show/rank/revert) as a
                                               ``{"action", "params"}`` body
``GET  /v1/sessions/<id>/etable``              component 3, the enriched
                                               table (``offset``/``limit``/
                                               ``max_refs`` paginate)
``GET  /v1/sessions/<id>/history``             component 4, history panel
``GET  /v1/sessions/<id>/plan``                execution-plan introspection
``GET  /v1/sessions/<id>/stream``              component 3 kept live: SSE
                                               delta frames, a snapshot on
                                               subscribe, then one frame
                                               per mutating action
=============================================  ===========================

Every response body is a protocol :class:`~repro.service.protocol.Response`
envelope; HTTP status codes mirror ``ok`` (200), domain rejections (400),
auth failures (401), unknown sessions/routes (404), spent quotas (429),
and server-side failures a client may retry — ``overloaded``, ``degraded``,
``worker_failure`` (503).

The SSE wire format, one frame per accepted mutating action::

    id: <seq>
    event: frame
    data: {"version":2,"seq":3,"kind":"delta",...}

with ``: ping`` comment lines while idle. Frame payloads are the
versioned :func:`repro.service.protocol.frame_to_json` messages; folding
them with :func:`repro.service.stream.fold_frame` reproduces the full
``GET .../etable`` payload cell for cell (the fuzzer proves it).

Every body and frame is encoded by :func:`repro.service.protocol.encode`.
The frontend writes whatever bytes :meth:`Response.encode
<repro.service.protocol.Response.encode>` returns, so in front of a fleet
a worker's reply reaches the client as the worker encoded it.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.errors import Overloaded, ProtocolError, ReproError
from repro.service import protocol
from repro.service.manager import SessionManager
from repro.service.resilience import AdmissionControl
from repro.service.stream.hub import StreamHub

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
# Bound on each shutdown phase: in-flight dispatches, then open connections.
_DRAIN_TIMEOUT_S = 5.0
# Interval of the ``: ping`` comment an idle SSE stream sends.
_PING_INTERVAL_S = 15.0

# Failure envelopes whose HTTP status is not 400, by ``error_type``.
_ERROR_STATUS = {
    "unknown_session": 404,
    "auth_error": 401,
    "quota_exceeded": 429,
    "overloaded": 503,
    "degraded": 503,
    "worker_failure": 503,
}


def _status_of(response: protocol.Response) -> int:
    if response.ok:
        return 200
    return _ERROR_STATUS.get(response.error_type or "", 400)


def _bearer_token(value: str | None) -> str | None:
    """Token from an ``Authorization: Bearer <token>`` header value."""
    if not value:
        return None
    scheme, _, token = value.partition(" ")
    token = token.strip()
    if scheme.lower() == "bearer" and token:
        return token
    return None


def _etable_params(query: dict[str, str]) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for name in ("offset", "limit", "max_refs"):
        if name in query:
            # Validate at the HTTP edge so "?limit=abc" is a typed 400
            # protocol_error here, same as it would be from the protocol
            # layer's own _int_param — never an unhandled ValueError.
            try:
                params[name] = int(query[name])
            except ValueError:
                raise ProtocolError(
                    f"query param {name!r} must be an integer, "
                    f"got {query[name]!r}"
                ) from None
    if query.get("include_history") in ("1", "true", "yes"):
        params["include_history"] = True
    return params


def route_request(manager: SessionManager, method: str, path: str,
                  query: dict[str, str], body: Any,
                  auth_token: str | None) -> tuple[int, protocol.Response]:
    """The request/response route table (blocking; executor-side).

    Every route but ``/stream``, which the loop serves itself.
    """
    parts = [part for part in path.split("/") if part]
    try:
        if method == "GET":
            if parts == ["healthz"]:
                stats = manager.stats()
                return 200, protocol.Response.success({
                    "status": "ok",
                    "live_sessions": stats["live_sessions"],
                    "actions": stats["actions"],
                })
            if parts == ["v1", "stats"]:
                return 200, protocol.Response.success(manager.stats())
            if parts == ["v1", "tables"]:
                response = manager.handle_request(
                    protocol.Request(action="tables")
                )
                return _status_of(response), response
            if len(parts) == 4 and parts[:2] == ["v1", "sessions"]:
                session_id, leaf = parts[2], parts[3]
                leaf_params: dict[str, Any] | None = None
                if leaf == "etable":
                    leaf_params = _etable_params(query)
                elif leaf in ("history", "plan"):
                    leaf_params = {}
                if leaf_params is not None:
                    request = protocol.Request(
                        action=leaf, params=leaf_params,
                        session_id=session_id, auth_token=auth_token,
                    )
                    response = manager.handle_request(request)
                    return _status_of(response), response
        elif method == "POST":
            if parts == ["v1", "sessions"]:
                request = protocol.Request(
                    action="create_session",
                    params=body if isinstance(body, dict) else {},
                )
                response = manager.handle_request(request)
                return _status_of(response), response
            if (len(parts) == 4 and parts[:2] == ["v1", "sessions"]
                    and parts[3] == "actions"):
                session_id = parts[2]
                if not isinstance(body, dict):
                    raise ProtocolError(
                        "action request body must be a JSON object"
                    )
                body.setdefault("session_id", session_id)
                if auth_token is not None:
                    body.setdefault("auth_token", auth_token)
                request = protocol.Request.from_json(body)
                if request.session_id != session_id:
                    raise ProtocolError(
                        "body session_id does not match the URL session"
                    )
                response = manager.handle_request(request)
                return _status_of(response), response
        elif method == "DELETE":
            if len(parts) == 3 and parts[:2] == ["v1", "sessions"]:
                manager.close_session(parts[2], auth_token=auth_token)
                return 200, protocol.Response.success(
                    {"closed": parts[2]}, session_id=parts[2]
                )
        return 404, protocol.Response.failure(
            f"no route for {method} {path}"
        )
    except ReproError as error:
        response = protocol.Response.failure(error)
        return _status_of(response), response


class AsyncNavigationServer:
    """One event loop serving the whole protocol surface plus SSE streams.

    ``port=0`` binds an ephemeral port (tests, CI). ``start()`` runs the
    loop on a daemon thread (the caller owns the lifecycle);
    ``serve_forever()`` runs it in the calling thread. ``shutdown()`` is
    graceful from any thread: stop accepting, close streams, let in-flight
    requests finish, close open keep-alive connections, then stop the loop.
    """

    def __init__(self, manager: SessionManager, host: str = "127.0.0.1",
                 port: int = 8080, max_inflight: int | None = None) -> None:
        self.manager = manager
        self._host = host
        self._port = port
        self.admission = AdmissionControl(max_inflight=max_inflight)
        self.hub: StreamHub | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._inflight = 0  # loop-thread only
        # Writers of open connections (loop-thread only): the drain closes
        # whatever is still open so no handler is left for asyncio.run()
        # to cancel mid-read.
        self._connections: set[asyncio.StreamWriter] = set()
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._finished = threading.Event()
        self._bound: tuple[str, int] | None = None
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        assert self._bound is not None, "server not started"
        return self._bound[0]

    @property
    def port(self) -> int:
        assert self._bound is not None, "server not started"
        return self._bound[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AsyncNavigationServer":
        self._thread = threading.Thread(
            target=self.serve_forever, name="etable-async", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def serve_forever(self) -> None:
        try:
            asyncio.run(self._main())
        finally:
            self._started.set()  # unblock start() even on bind failure
            self._finished.set()

    def shutdown(self) -> None:
        """Graceful stop from any thread: drain, then stop the loop."""
        loop = self._loop
        if loop is None:
            return
        def begin() -> None:
            if self._stop_event is not None:
                self._stop_event.set()
        try:
            loop.call_soon_threadsafe(begin)
        except RuntimeError:
            return  # loop already closed
        # _main bounds each of its two drain phases by _DRAIN_TIMEOUT_S;
        # the rest is slack for the loop to wind down.
        self._finished.wait(3 * _DRAIN_TIMEOUT_S)
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)
            self._thread = None

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_event = asyncio.Event()
        self.hub = StreamHub(self.manager, loop)
        try:
            server = await asyncio.start_server(
                self._handle_connection, self._host, self._port,
                limit=_MAX_HEADER_BYTES,
            )
        except OSError as error:
            self._startup_error = error
            return
        sockets = server.sockets or []
        address = sockets[0].getsockname()
        self._bound = (address[0], address[1])
        self._started.set()
        async with server:
            await self._stop_event.wait()
            # Graceful drain: stop accepting, wake every stream (their
            # loops observe hub closure and exit), then wait for in-flight
            # request dispatches to write their responses.
            server.close()
            self.hub.close()
            deadline = loop.time() + _DRAIN_TIMEOUT_S
            while self._inflight > 0 and loop.time() < deadline:
                await asyncio.sleep(0.01)
            # Idle keep-alive connections are parked in readuntil(): closing
            # their transports feeds EOF, so each handler returns through
            # its IncompleteReadError path instead of being cancelled.
            for writer in list(self._connections):
                writer.close()
            deadline = loop.time() + _DRAIN_TIMEOUT_S
            while self._connections and loop.time() < deadline:
                await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    # Connection handling (loop side)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                    return  # client closed (or oversized headers)
                method, target, headers = _parse_head(head)
                if method is None:
                    return
                try:
                    length = int(headers.get("content-length") or 0)
                    if length < 0:
                        raise ValueError(length)
                except ValueError:
                    # A malformed Content-Length is a protocol error, not a
                    # server bug: typed 400, and drop the connection (the
                    # body boundary is unknowable).
                    await self._respond(
                        writer, 400, protocol.Response.failure(
                            ProtocolError(
                                "Content-Length header is not an integer"
                            )
                        ), keep_alive=False,
                    )
                    return
                if length > _MAX_BODY_BYTES:
                    await self._respond(
                        writer, 400, protocol.Response.failure(
                            ProtocolError(
                                f"request body too large ({length} bytes)"
                            )
                        ), keep_alive=False,
                    )
                    return
                raw_body = await reader.readexactly(length) if length else b""
                parsed = urlparse(target)
                query = {key: values[-1] for key, values
                         in parse_qs(parsed.query).items()}
                auth_token = _bearer_token(headers.get("authorization"))
                stream_id = _stream_session(method, parsed.path)
                if stream_id is not None:
                    await self._serve_stream(writer, stream_id, auth_token)
                    return  # an SSE response never reuses the connection
                status, response = await self._dispatch(
                    method, parsed.path, query, raw_body, auth_token
                )
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and not self._stop_event.is_set()
                )
                await self._respond(writer, status, response,
                                    keep_alive=keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # client gone (or closed by the drain) mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._connections.discard(writer)

    async def _dispatch(self, method: str, path: str, query: dict[str, str],
                        raw_body: bytes, auth_token: str | None
                        ) -> tuple[int, protocol.Response]:
        try:
            body: Any = protocol.decode(raw_body) if raw_body else {}
        except ProtocolError as error:
            return 400, protocol.Response.failure(error)
        # Shed before the executor hop: an over-cap request must not queue
        # behind the very backlog that makes the server overloaded.
        if not self.admission.try_acquire():
            return 503, protocol.Response.failure(Overloaded(
                "server is at its in-flight request cap; retry shortly"
            ))
        loop = asyncio.get_running_loop()
        self._inflight += 1
        try:
            status, response = await loop.run_in_executor(
                None, route_request,
                self.manager, method, path, query, body, auth_token,
            )
        finally:
            self._inflight -= 1
            self.admission.release()
        # The stream section of /v1/stats reads loop-local hub state, so
        # it is merged here on the loop thread, not inside route_request.
        if path.rstrip("/") == "/v1/stats" and response.ok and self.hub:
            result = dict(response.result)
            result["stream"] = self.hub.stats_payload()
            result["admission"] = self.admission.stats()
            response = protocol.Response(
                ok=True, result=result, version=response.version
            )
        return status, response

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       response: protocol.Response,
                       keep_alive: bool) -> None:
        body = response.encode()
        reason = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
                  404: "Not Found", 429: "Too Many Requests",
                  503: "Service Unavailable"}.get(status, "")
        retry_after = ""
        if response.error_type == "overloaded":
            retry_after = (
                f"Retry-After: {max(1, round(self.admission.retry_after))}\r\n"
            )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{retry_after}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # SSE streaming
    # ------------------------------------------------------------------
    async def _serve_stream(self, writer: asyncio.StreamWriter,
                            session_id: str,
                            auth_token: str | None) -> None:
        assert self.hub is not None
        try:
            subscriber = await self.hub.subscribe(
                session_id, auth_token=auth_token
            )
        except ReproError as error:
            response = protocol.Response.failure(error)
            await self._respond(writer, _status_of(response), response,
                                keep_alive=False)
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        try:
            while not subscriber.closed:
                popped = subscriber.pop()
                if popped is None:
                    try:
                        await asyncio.wait_for(
                            subscriber.event.wait(),
                            timeout=_PING_INTERVAL_S,
                        )
                    except asyncio.TimeoutError:
                        writer.write(b": ping\n\n")
                        await writer.drain()
                    continue
                frame, _after = popped
                data = protocol.encode(protocol.frame_to_json(frame))
                writer.write(
                    f"id: {frame.seq}\nevent: frame\ndata: ".encode("ascii")
                    + data + b"\n\n"
                )
                # drain() is the backpressure boundary: while it blocks on
                # a slow consumer, pushes pile into the bounded queue and
                # coalesce instead of buffering here.
                await writer.drain()
                if frame.kind == "closed":
                    # Terminal frame: the session was closed or evicted.
                    # End the stream instead of pinging a dead session.
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.hub.unsubscribe(subscriber)


def _parse_head(
    head: bytes,
) -> tuple[str | None, str, dict[str, str]]:
    """(method, target, lowercased headers); method None on a bad head."""
    try:
        text = head.decode("latin-1")
        request_line, *header_lines = text.split("\r\n")
        method, target, _version = request_line.split()
    except ValueError:
        return None, "", {}
    headers: dict[str, str] = {}
    for line in header_lines:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    return method.upper(), target, headers


def _stream_session(method: str, path: str) -> str | None:
    parts = [part for part in path.split("/") if part]
    if (method == "GET" and len(parts) == 4
            and parts[:2] == ["v1", "sessions"] and parts[3] == "stream"):
        return parts[2]
    return None
