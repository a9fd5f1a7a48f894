"""The fleet router: consistent-hash session placement over N workers.

cubicweb's repository/session split, flattened onto this codebase: the
router owns *placement* (which worker hosts which session) and the
workers own *state* (the sessions themselves, each durably journaled in
the fleet-shared journal directory). The router duck-types the
:class:`~repro.service.manager.SessionManager` surface the frontend
uses — ``handle_request``, ``close_session``, ``stats``,
``with_session``, the two observer hooks and ``shutdown`` — so the HTTP
server sits in front of a fleet unchanged. A client learns its session's
bearer token from the ``create_session`` reply, as in one process.

Migration is journal handoff, not state transfer. Because every worker
journals into the same directory, moving a session is: reassign the hash
slot, then let the new owner resurrect it from the journal through the
prefix-reuse cache on the next request. That one mechanism serves every
lifecycle event:

* **drain / rolling restart** — the departing worker releases its
  sessions (flushing quota bookkeeping), the ring reroutes, the new
  owners replay;
* **rebalance** — after membership changes, every worker drops the
  sessions that no longer hash to it;
* **crash** — nothing to flush: the journal already holds every accepted
  action, so the router just removes the dead member and retries on the
  new owner, which replays to the exact pre-crash state (history, ETable
  cells, and auth token are all journal-derived — bit-identical);
* **fleet restart** — restarting the front process restarts its
  workers; the new fleet starts with no live sessions over the same
  journal directory, and each session comes back on its ring owner at
  its first request.

Replies to user requests pass through the router undecoded. A worker
frames each reply as a header line (``ok``, ``error_type``, the body's
length) followed by the encoded envelope; the router reads exactly that
body and hands it to the frontend as a relayed
:class:`~repro.service.protocol.Response`, whose bytes the frontend
writes unchanged. The router decodes a body only where it reads the
result itself: control ops and the ``apply``, ``create_session`` and
``close_session`` conveniences.

SSE streaming is *not* proxied across the process boundary yet: the
stream hub needs a live in-process session. A fleet therefore serves the
request/response surface only; the ROADMAP names the cross-process
``restore``-frame follow-on.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import socket
import threading
import time
import uuid
from typing import Any, Callable

from repro.errors import ProtocolError, ServiceError, WorkerFailure
from repro.service import faults, protocol
from repro.service.fleet.hashring import HashRing
from repro.service.fleet.worker import fleet_worker_main
from repro.service.resilience import CircuitBreaker, HealthProbe, RetryPolicy

# A routed request, retries included, and a control round trip each
# finish within this budget.
_REQUEST_TIMEOUT_S = 60.0
# A health ping and a stop op each wait this long for the worker's reply,
# so a hung worker fails its probe fast and cannot stall shutdown; all
# workers together get _STOP_EXIT_S to exit before the rest are killed.
_CONTROL_REPLY_S = 2.0
_STOP_EXIT_S = 10.0
# Consecutive failures that open a worker's circuit breaker.
_BREAKER_THRESHOLD = 5


class _WorkerHandle:
    """Router-side view of one worker: process + pooled connections."""

    def __init__(self, name: str, spec: dict[str, Any],
                 process: multiprocessing.process.BaseProcess,
                 port: int) -> None:
        self.name = name
        self.spec = spec
        self.process = process
        self.port = port
        self._pool: list[socket.socket] = []  # guarded-by: self._pool_lock
        self._pool_lock = threading.Lock()

    def alive(self) -> bool:
        return self.process.is_alive()

    # -- pooled round trip: a request line out, a framed reply back ----
    def call(self, payload: dict[str, Any],
             timeout: float) -> protocol.Response:
        """One request/reply round trip, the reply left undecoded.

        The worker frames each reply as a header line (``ok``,
        ``error_type``, the body's ``length``) and then the body; this
        reads exactly that many bytes and returns a relayed
        :class:`~repro.service.protocol.Response` holding them. Transport
        trouble of any shape (connect refusal, timeout, a bad header, a
        short body, a closed connection, or an injected fault) surfaces
        as a typed :class:`WorkerFailure` so callers never match on broad
        ``OSError`` tuples, and the socket is closed, never pooled.
        """
        try:
            sock = self._acquire(timeout)
        except OSError as error:
            raise WorkerFailure(
                f"worker {self.name!r} is unreachable: {error}"
            ) from error
        try:
            faults.fire("router.send")
            sock.sendall(protocol.encode(payload) + b"\n")
            buffer = b""
            while b"\n" not in buffer:
                buffer += self._recv(sock, 1 << 20)
            line, _, body = buffer.partition(b"\n")
            ok, error_type, length = self._header(line)
            chunks = [body]
            received = len(body)
            while received < length:
                chunk = self._recv(sock, min(length - received, 1 << 20))
                chunks.append(chunk)
                received += len(chunk)
            if received > length:
                raise WorkerFailure(
                    f"worker {self.name!r} sent {received} bytes for a "
                    f"{length}-byte reply"
                )
        except BaseException as error:
            # Never pool a socket with unread reply bytes in flight.
            try:
                sock.close()
            except OSError:
                pass
            if isinstance(error, WorkerFailure):
                raise
            if isinstance(error, OSError):
                raise WorkerFailure(
                    f"transport to worker {self.name!r} failed: {error}"
                ) from error
            raise
        self._release(sock)
        return protocol.Response(ok=ok, error_type=error_type,
                                 wire=b"".join(chunks))

    def _recv(self, sock: socket.socket, size: int) -> bytes:
        # The recv fault fires *after* the send, before every read of the
        # header or the body: the worker may already have applied the
        # action — exactly the at-least-once window the dedup cache closes.
        faults.fire("router.recv")
        chunk = sock.recv(size)
        if not chunk:
            raise WorkerFailure(
                f"worker {self.name!r} closed the connection mid-reply"
            )
        return chunk

    def _header(self, line: bytes) -> tuple[bool, str | None, int]:
        """(ok, error_type, body length) from a reply header line."""
        try:
            header = protocol.decode(line)
        except ProtocolError as error:
            raise WorkerFailure(
                f"worker {self.name!r} sent an undecodable reply header: "
                f"{error}"
            ) from error
        if isinstance(header, dict):
            ok = header.get("ok")
            error_type = header.get("error_type")
            length = header.get("length")
            if (isinstance(ok, bool)
                    and (error_type is None or isinstance(error_type, str))
                    and isinstance(length, int)
                    and not isinstance(length, bool) and length >= 0):
                return ok, error_type, length
        raise WorkerFailure(
            f"worker {self.name!r} sent a malformed reply header: {line!r}"
        )

    def _acquire(self, timeout: float) -> socket.socket:
        """A pooled or new connection, bounded by this call's timeout."""
        with self._pool_lock:
            sock = self._pool.pop() if self._pool else None
        if sock is None:
            sock = socket.create_connection(("127.0.0.1", self.port),
                                            timeout=timeout)
        sock.settimeout(timeout)
        return sock

    def _release(self, sock: socket.socket) -> None:
        with self._pool_lock:
            self._pool.append(sock)

    def close_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for sock in pool:
            try:
                sock.close()
            except OSError:
                pass


class FleetRouter:
    """N worker processes behind one SessionManager-shaped facade."""

    def __init__(self, worker_spec: dict[str, Any], workers: int = 2,
                 retry_policy: RetryPolicy | None = None,
                 breaker_reset: float = 5.0,
                 probe_interval: float | None = 5.0) -> None:
        if workers < 1:
            raise ServiceError(f"a fleet needs >= 1 worker, got {workers}")
        if "journal_dir" not in worker_spec or not worker_spec["journal_dir"]:
            raise ServiceError(
                "fleet workers need a shared journal_dir: migration is "
                "journal handoff, there is no other state channel"
            )
        self._lock = threading.Lock()
        self._workers: dict[str, _WorkerHandle] = {}  # guarded-by: self._lock
        self._ring = HashRing()  # guarded-by: self._lock
        self.retry_policy = retry_policy or RetryPolicy()
        self._breaker_reset = breaker_reset
        self._breakers: dict[str, CircuitBreaker] = {}  # guarded-by: self._lock
        self.migrations = 0  # guarded-by: self._lock
        self.worker_restarts = 0  # guarded-by: self._lock
        self.routed_requests = 0  # guarded-by: self._lock
        self.retries = 0  # guarded-by: self._lock
        self.breaker_opens = 0  # guarded-by: self._lock
        self.rebalance_failures = 0  # guarded-by: self._lock
        self._probe: HealthProbe | None = None
        try:
            for index in range(workers):
                name = f"worker-{index}"
                handle = self._spawn(dict(worker_spec, name=name))
                with self._lock:
                    self._workers[name] = handle
                    self._ring.add(name)
        except BaseException:
            # A worker that never booted must not strand the ones that did:
            # each holds a port and a manager over the shared journals.
            self.shutdown()
            raise
        if probe_interval is not None:
            self._probe = HealthProbe(self._probe_once,
                                      interval=probe_interval)
            self._probe.start()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, spec: dict[str, Any],
               attempts: int = 3) -> _WorkerHandle:
        """Spawn with a bounded boot retry: a worker that dies during
        startup (OOM, an injected ``worker.boot`` fault) gets fresh
        processes before the failure escapes."""
        last_error: ServiceError | None = None
        for _ in range(attempts):
            try:
                return self._spawn_once(spec)
            except ServiceError as error:
                last_error = error
        assert last_error is not None
        raise last_error

    def _spawn_once(self, spec: dict[str, Any]) -> _WorkerHandle:
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=fleet_worker_main, args=(spec, child_conn),
            name=f"fleet-{spec['name']}", daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(120.0):
            process.kill()
            raise ServiceError(f"worker {spec['name']!r} never reported in")
        boot = parent_conn.recv()
        parent_conn.close()
        if "error" in boot:
            process.join(timeout=5.0)
            raise ServiceError(
                f"worker {spec['name']!r} failed to boot: {boot['error']}"
            )
        return _WorkerHandle(spec["name"], spec, process, boot["port"])

    def worker_names(self) -> list[str]:
        with self._lock:
            return sorted(self._workers)

    def owner_of(self, session_id: str) -> str:
        with self._lock:
            return self._ring.owner(session_id)

    def kill_worker(self, name: str) -> None:
        """SIGKILL a worker (failure injection: tests, self-test)."""
        with self._lock:
            handle = self._workers.get(name)
        if handle is None:
            raise ServiceError(f"no worker named {name!r}")
        handle.process.kill()
        handle.process.join(timeout=10.0)

    def restart_worker(self, name: str) -> None:
        """Drain one worker and bring up a replacement (rolling restart).

        Sequence: take it off the ring (new traffic reroutes), tell it to
        drain (journals flushed, quota persisted), shut it down, spawn the
        replacement, re-add it, then broadcast a rebalance so every worker
        releases the sessions the restored ring no longer maps to it —
        without this, a session resurrected elsewhere during the restart
        would be double-hosted when the name rejoins.
        """
        with self._lock:
            handle = self._workers.get(name)
            if handle is None:
                raise ServiceError(f"no worker named {name!r}")
            self._ring.remove(name)
        try:
            if handle.alive():
                try:
                    self._control(handle, "drain")
                    self._control(handle, "shutdown")
                except (OSError, ServiceError):
                    pass  # already dying; journals are the safety net
                handle.process.join(timeout=30.0)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(timeout=10.0)
            handle.close_pool()
            replacement = self._spawn(handle.spec)
        except BaseException:
            with self._lock:
                self._workers.pop(name, None)
            raise
        with self._lock:
            self._workers[name] = replacement
            self._ring.add(name)
            self._breakers.pop(name, None)  # the replacement starts closed
            self.worker_restarts += 1
        self._broadcast_rebalance()

    def rolling_restart(self) -> None:
        """Restart every worker one at a time; the service stays up."""
        for name in self.worker_names():
            self.restart_worker(name)

    def _broadcast_rebalance(self) -> None:
        with self._lock:
            members = sorted(self._ring.members)
            handles = list(self._workers.values())
        for handle in handles:
            try:
                self._control(handle, "rebalance", {"members": members})
            except (OSError, ServiceError):
                # A dead worker has nothing to release — but count the
                # skip so chaos runs can prove nothing was silently lost.
                with self._lock:
                    self.rebalance_failures += 1
                continue

    # ------------------------------------------------------------------
    # Control-plane round trips
    # ------------------------------------------------------------------
    def _control(self, handle: _WorkerHandle, op: str,
                 args: dict[str, Any] | None = None,
                 timeout: float = _REQUEST_TIMEOUT_S) -> dict[str, Any]:
        """One control round trip, never retried: each caller owns its
        failure (the probe counts it, ``stats`` reports the worker as not
        alive, a drain or a stop leaves its sessions to the journals)."""
        control = protocol.WorkerControl(op=op, args=args or {},
                                         request_id=uuid.uuid4().hex)
        response = _decoded(handle.call(control.to_json(), timeout))
        if not response.ok:
            raise protocol.exception_from_response(response)
        return response.result or {}

    # ------------------------------------------------------------------
    # Routed user traffic (the SessionManager-shaped surface)
    # ------------------------------------------------------------------
    def handle_request(self, request: protocol.Request) -> protocol.Response:
        """Answer one request the way ``SessionManager.handle_request``
        does. A reply routed to a worker comes back relayed: ``ok`` and
        ``error_type`` are set, ``encode()`` returns the worker's bytes,
        and ``decoded()`` reads the rest."""
        try:
            if request.action == "create_session":
                # Mint the id router-side: placement needs the id *before*
                # any worker is involved.
                session_id = (request.params.get("session_id")
                              or request.session_id or uuid.uuid4().hex[:12])
                request = protocol.Request(
                    action="create_session",
                    params=dict(request.params, session_id=session_id),
                    session_id=str(session_id),
                    request_id=request.request_id,
                    auth_token=request.auth_token,
                )
                return self._route(str(session_id), request)
            if request.action == "stats":
                return protocol.Response.success(self.stats(), request)
            if request.action == "tables":
                return self._any_worker_request(request)
            session_id = request.session_id or request.params.get("session_id")
            if not session_id:
                return protocol.Response.failure(
                    protocol.ProtocolError(
                        f"action {request.action!r} needs a session_id"
                    ), request,
                )
            return self._route(str(session_id), request)
        except ServiceError as error:
            return protocol.Response.failure(error, request)

    def _route(self, session_id: str,
               request: protocol.Request) -> protocol.Response:
        """Send to the owner under the retry policy, breaker, and budget.

        Three failure regimes, three answers:

        * **worker died** — drop the member; the ring reroutes this
          session (and its siblings) to live owners, which resurrect
          from the shared journals on the immediate retry (no backoff:
          the new owner is healthy);
        * **transport flake, worker alive** — bounded retries with
          exponential backoff + full jitter *to the same owner*, inside
          a deadline budget that never exceeds ``_REQUEST_TIMEOUT_S``;
        * **worker flapping** — its breaker opens after consecutive
          failures and requests fail fast (typed ``WorkerFailure``)
          until the half-open probe heals it. An open breaker never
          reroutes a *live* worker's sessions: two workers appending to
          one journal would corrupt it.

        The retry is exactly-once end to end: one ``request_id`` is
        minted here and reused across every attempt, and the worker's
        dedup cache replays its recorded reply if the action already
        applied (the at-least-once window between apply and reply).
        """
        if not request.request_id:
            request = dataclasses.replace(request,
                                          request_id=uuid.uuid4().hex)
        policy = self.retry_policy
        deadline = time.monotonic() + _REQUEST_TIMEOUT_S
        attempt = 0
        while True:
            with self._lock:
                self.routed_requests += 1
                owner = self._ring.owner(session_id)
                handle = self._workers[owner]
            breaker = self._breaker_for(owner)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerFailure(
                    f"request for session {session_id!r} ran out of its "
                    f"{_REQUEST_TIMEOUT_S:g}s budget retrying worker "
                    f"{owner!r}"
                )
            # allow() may hand out the one half-open trial, so after this
            # point every path must record a success or a failure — the
            # deadline was checked above for exactly that reason.
            if not breaker.allow():
                if not handle.alive():
                    self._remove_dead(owner)
                    continue
                raise WorkerFailure(
                    f"worker {owner!r} circuit is open (retry after "
                    f"{breaker.reset_timeout:g}s)"
                )
            try:
                reply = handle.call(request.to_json(), max(0.05, remaining))
            except WorkerFailure:
                if breaker.record_failure():
                    with self._lock:
                        self.breaker_opens += 1
                if not handle.alive():
                    self._remove_dead(owner)
                    with self._lock:
                        self.retries += 1
                    continue  # rerouted owner is healthy: retry now
                attempt += 1
                remaining = deadline - time.monotonic()
                if attempt >= policy.max_attempts or remaining <= 0:
                    raise
                with self._lock:
                    self.retries += 1
                time.sleep(min(policy.delay(attempt), remaining))
                continue
            breaker.record_success()
            return reply

    def _remove_dead(self, name: str) -> None:
        with self._lock:
            handle = self._workers.pop(name, None)
            if handle is None:
                return  # another thread already buried it
            if name in self._ring:
                if len(self._workers) == 0:
                    self._workers[name] = handle  # keep the error readable
                    raise ServiceError(
                        f"last fleet worker {name!r} died; nothing to "
                        f"fail over to"
                    )
                self._ring.remove(name)
                self.migrations += 1
            self._breakers.pop(name, None)
        handle.close_pool()

    def _breaker_for(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=_BREAKER_THRESHOLD,
                    reset_timeout=self._breaker_reset,
                )
                self._breakers[name] = breaker
            return breaker

    def _probe_once(self) -> None:
        """One health sweep: ping every worker, keep breakers honest,
        bury the dead before a user request trips over them."""
        with self._lock:
            handles = dict(self._workers)
        for name, handle in sorted(handles.items()):
            breaker = self._breaker_for(name)
            try:
                self._control(handle, "ping", timeout=_CONTROL_REPLY_S)
            except (OSError, ServiceError):
                if breaker.record_failure():
                    with self._lock:
                        self.breaker_opens += 1
                if not handle.alive():
                    try:
                        self._remove_dead(name)
                    except ServiceError:
                        pass  # last worker: requests will report it
            else:
                # A live ping closes the breaker early — faster than
                # waiting out reset_timeout on the request path.
                breaker.record_success()

    def _any_worker_request(self, request: protocol.Request
                            ) -> protocol.Response:
        with self._lock:
            handles = list(self._workers.values())
        last_error: Exception | None = None
        for handle in handles:
            try:
                return handle.call(request.to_json(), _REQUEST_TIMEOUT_S)
            except WorkerFailure as error:
                last_error = error
        raise WorkerFailure(f"no worker answered: {last_error}")

    # ------------------------------------------------------------------
    # SessionManager-shaped conveniences (frontends + tests)
    # ------------------------------------------------------------------
    def apply(self, session_id: str, action: str,
              params: dict[str, Any] | None = None,
              auth_token: str | None = None) -> dict[str, Any]:
        response = _decoded(self._route(session_id, protocol.Request(
            action=action, params=params or {}, session_id=session_id,
            auth_token=auth_token,
        )))
        if not response.ok:
            raise protocol.exception_from_response(response)
        return response.result or {}

    def create_session(self, session_id: str | None = None) -> str:
        params = {"session_id": session_id} if session_id else {}
        response = _decoded(self.handle_request(
            protocol.Request(action="create_session", params=params)
        ))
        if not response.ok:
            raise protocol.exception_from_response(response)
        return response.result["session_id"]

    def close_session(self, session_id: str, drop_journal: bool = False,
                      auth_token: str | None = None) -> None:
        params: dict[str, Any] = {}
        if drop_journal:
            params["drop_journal"] = True
        response = self._route(session_id, protocol.Request(
            action="close_session", params=params, session_id=session_id,
            auth_token=auth_token,
        ))
        if not response.ok:
            raise protocol.exception_from_response(_decoded(response))

    def add_action_observer(self, observer: Callable[..., Any]) -> None:
        """Accepted for SessionManager duck-typing; fleet workers live in
        other processes, so in-process observers can never fire."""

    def add_lifecycle_observer(self, observer: Callable[..., Any]) -> None:
        """Accepted for SessionManager duck-typing (see above)."""

    def with_session(self, session_id: str, fn: Callable[..., Any],
                     auth_token: str | None = None) -> Any:
        raise ServiceError(
            "SSE streaming is not yet proxied across the fleet boundary; "
            "serve streams from a single-process deployment (the "
            "'restore'-frame follow-on in ROADMAP covers fleet SSE)"
        )

    def stats(self) -> dict[str, Any]:
        with self._lock:
            handles = dict(self._workers)
            routed = self.routed_requests
            migrations = self.migrations
            restarts = self.worker_restarts
            retries = self.retries
            breaker_opens = self.breaker_opens
            rebalance_failures = self.rebalance_failures
            breakers = {name: breaker.state
                        for name, breaker in sorted(self._breakers.items())
                        if name in handles}
        per_worker: dict[str, Any] = {}
        totals = {"live_sessions": 0, "created": 0, "resumed": 0,
                  "evicted": 0, "actions": 0}
        for name, handle in sorted(handles.items()):
            try:
                worker_stats = self._control(handle, "stats")
            except (OSError, ServiceError):
                per_worker[name] = {"alive": False}
                continue
            per_worker[name] = worker_stats
            for key in totals:
                totals[key] += int(worker_stats.get(key, 0))
        fleet: dict[str, Any] = {
            "workers": sorted(handles),
            "routed_requests": routed,
            "migrations": migrations,
            "worker_restarts": restarts,
            "retries": retries,
            "breaker_opens": breaker_opens,
            "rebalance_failures": rebalance_failures,
            "breakers": breakers,
            "per_worker": per_worker,
        }
        if self._probe is not None:
            fleet["probe"] = self._probe.stats()
        return {**totals, "fleet": fleet}

    def shutdown(self) -> None:
        """Graceful fleet stop: ask every worker to shut down, then join
        them all within one deadline. Each stop op waits at most
        ``_CONTROL_REPLY_S`` for its reply, and a worker still running
        ``_STOP_EXIT_S`` after the last one (a stopped or wedged process)
        is killed; its journals hold its sessions."""
        if self._probe is not None:
            self._probe.stop()
            self._probe = None
        with self._lock:
            handles, self._workers = dict(self._workers), {}
            self._ring = HashRing()
        for handle in handles.values():
            try:
                self._control(handle, "shutdown", timeout=_CONTROL_REPLY_S)
            except (OSError, ServiceError):
                pass  # already dead, or not answering
            handle.close_pool()
        deadline = time.monotonic() + _STOP_EXIT_S
        for handle in handles.values():
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for handle in handles.values():
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=_STOP_EXIT_S)


def _decoded(response: protocol.Response) -> protocol.Response:
    """A relayed reply with its body decoded, for a caller that reads the
    result or the error itself. A body that is not an envelope is a
    :class:`WorkerFailure`, as a torn reply is."""
    try:
        return response.decoded()
    except ProtocolError as error:
        raise WorkerFailure(
            f"worker sent an undecodable reply: {error}"
        ) from error
