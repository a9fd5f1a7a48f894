"""One fleet worker process: a SessionManager behind a loopback socket.

Each worker is a full single-process service — the shared graph, its own
:class:`~repro.core.cache.CachingExecutor` (and therefore its own
``CompiledPlanCache``), a :class:`~repro.service.manager.SessionManager`
over the *fleet-shared* journal directory — listening on an ephemeral
loopback port. Requests arrive as newline-terminated JSON lines. Two
envelope kinds ride the same socket, discriminated by the ``"control"``
key:

* :class:`~repro.service.protocol.Request` — user traffic, answered by
  ``manager.handle_request`` exactly as the HTTP frontend would;
* :class:`~repro.service.protocol.WorkerControl` — router control plane
  (ping, stats, rebalance, drain, shutdown), answered with the same
  :class:`~repro.service.protocol.Response` envelope.

Each reply is encoded once, by :func:`reply_bytes`: a one-line JSON
header ``{"ok", "error_type", "length"}``, then exactly ``length`` bytes
of the encoded :class:`~repro.service.protocol.Response`. The router
reads the header, then the body by its length, and hands the body of a
user request on to the HTTP client without decoding it.

The worker never knows the whole fleet: rebalance hands it the member
list and it keeps only the sessions the ring maps to itself, releasing
the rest (journals intact) for their new owners to resurrect on their
next request.

The graph is *built inside the worker* from a ``"module:callable"`` (or
``"path.py:callable"``) factory named in the picklable spec dict — the
spec crosses the process boundary, the graph never does. Neither do the
planner's statistics: each worker computes them from its own graph on
first use. The worker reads the spec keys it knows and ignores the rest.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import socket
import threading
from typing import Any

from repro.errors import ProtocolError, ServiceError
from repro.service import faults, protocol
from repro.service.manager import SessionManager
from repro.service.fleet.hashring import HashRing

# The reply cache keeps this many recent request ids per worker. It only
# needs to outlive the router's retry window for in-flight requests, not
# remember history — the router pools a handful of connections, so a few
# hundred entries is orders of magnitude past what retries can reference.
_DEDUP_CAPACITY = 512

# Requests whose replies the cache keeps: exactly-once matters only for
# the ones that change state. Reads (etable, history, plan, tables, stats)
# and control ops (ping and stats read; rebalance, drain and shutdown are
# idempotent) simply run again when the router retries them.
_DEDUPED_ACTIONS = protocol.MUTATING_ACTIONS | {"create_session",
                                                "close_session"}

# The spec keys a worker hands to its SessionManager as they are; a key
# the spec leaves out keeps the manager's default.
_MANAGER_SETTINGS = ("row_limit", "max_sessions", "ttl_seconds",
                     "journal_dir", "compact_every", "require_auth",
                     "quota_actions", "quota_window", "fsync_journal")


def resolve_factory(factory: str):
    """``"pkg.module:callable"`` or ``"/path/file.py:callable"`` -> callable."""
    target, sep, name = factory.partition(":")
    if not sep or not target or not name:
        raise ServiceError(
            f"factory must look like 'module:callable' or "
            f"'path.py:callable', got {factory!r}"
        )
    if target.endswith(".py"):
        spec = importlib.util.spec_from_file_location("_fleet_factory", target)
        if spec is None or spec.loader is None:
            raise ServiceError(f"cannot load factory file {target!r}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    else:
        module = importlib.import_module(target)
    fn = getattr(module, name, None)
    if fn is None:
        raise ServiceError(f"factory {factory!r} does not exist")
    return fn


class FleetWorker:
    """The in-process half of one worker: socket loop over a manager."""

    def __init__(self, spec: dict[str, Any]) -> None:
        self.name = str(spec["name"])
        faults.fire("worker.boot")
        tgdb = resolve_factory(spec["factory"])(**spec.get("factory_kwargs", {}))
        self.manager = SessionManager(
            tgdb.schema, tgdb.graph,
            **{key: spec[key] for key in _MANAGER_SETTINGS if key in spec},
        )
        self._server = socket.create_server(("127.0.0.1", 0))
        self._server.settimeout(0.2)
        self.port = self._server.getsockname()[1]
        self._stop = threading.Event()
        # Reply cache for exactly-once application of state-changing
        # requests (``_DEDUPED_ACTIONS``): the router reuses one request_id
        # across retries, so a retry whose original was applied (but whose
        # reply was lost) replays the recorded Response instead of
        # re-executing the action. A retry can also arrive while its
        # original is still applying (the router gave up on the reply
        # early); it waits on the original's event in ``_inflight``.
        self._dedup_lock = threading.Lock()
        self._dedup: dict[str, protocol.Response] = {}  # guarded-by: self._dedup_lock
        self._inflight: dict[str, threading.Event] = {}  # guarded-by: self._dedup_lock
        self._stats_lock = threading.Lock()
        self.client_disconnects = 0  # guarded-by: self._stats_lock
        self.dedup_hits = 0  # guarded-by: self._stats_lock

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept loop: one thread per connection (the router pools its
        connections, so the thread count is O(router concurrency))."""
        try:
            while not self._stop.is_set():
                try:
                    conn, _addr = self._server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    name=f"fleet-{self.name}-conn", daemon=True,
                )
                thread.start()
        finally:
            self._server.close()
            self.manager.shutdown()

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            while not self._stop.is_set():
                line = stream.readline()
                if not line:
                    return
                stream.write(reply_bytes(self._serve_line(line)))
                stream.flush()
        except (OSError, ValueError):
            # Router went away mid-line; its retry logic owns this — but
            # the drop is counted so chaos runs can assert the books add up.
            with self._stats_lock:
                self.client_disconnects += 1
        finally:
            stream.close()
            conn.close()

    def _serve_line(self, line: bytes) -> protocol.Response:
        try:
            payload = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return protocol.Response.failure(
                ProtocolError(f"worker request is not JSON: {error}")
            )
        request_id = _dedup_key(payload)
        if request_id is None:
            return self._serve_payload(payload)
        cached = self._claim(request_id)
        if cached is not None:
            with self._stats_lock:
                self.dedup_hits += 1
            return cached
        response = None
        try:
            response = self._serve_payload(payload)
        finally:
            with self._dedup_lock:
                if response is not None:
                    self._dedup[request_id] = response
                    while len(self._dedup) > _DEDUP_CAPACITY:
                        # dicts iterate in insertion order: drop the oldest.
                        self._dedup.pop(next(iter(self._dedup)))
                self._inflight.pop(request_id).set()
        return response

    def _claim(self, request_id: str) -> protocol.Response | None:
        """The recorded reply for ``request_id``, or ``None`` once this
        thread owns its delivery. A duplicate that arrives while another
        thread is applying the same request waits for that reply."""
        while True:
            with self._dedup_lock:
                cached = self._dedup.get(request_id)
                if cached is not None:
                    return cached
                applying = self._inflight.get(request_id)
                if applying is None:
                    self._inflight[request_id] = threading.Event()
                    return None
            applying.wait()

    def _serve_payload(self, payload: Any) -> protocol.Response:
        try:
            if isinstance(payload, dict) and "control" in payload:
                control = protocol.WorkerControl.from_json(payload)
                return self._serve_control(control)
            return self.manager.handle_request(
                protocol.Request.from_json(payload)
            )
        except Exception as error:  # noqa: BLE001 - worker must answer
            return protocol.Response.failure(error)

    # ------------------------------------------------------------------
    def _serve_control(self, control: protocol.WorkerControl
                       ) -> protocol.Response:
        op, args = control.op, control.args
        if op == "ping":
            result: dict[str, Any] = {"name": self.name, "pid": os.getpid(),
                                      "port": self.port}
        elif op == "stats":
            result = self.manager.stats()
            result["worker"] = self.name
            with self._stats_lock:
                result["client_disconnects"] = self.client_disconnects
                result["dedup_hits"] = self.dedup_hits
            if (injector := faults.active()) is not None:
                result["faults"] = injector.stats()
        elif op == "rebalance":
            result = {"released": self._rebalance(args.get("members", []))}
        elif op == "drain":
            result = {"released": self.manager.release_sessions()}
        elif op == "shutdown":
            # Reply first (the socket loop sends this return value), then
            # stop accepting; serve_forever's finally drains the manager.
            self._stop.set()
            result = {"stopping": self.name}
        else:  # pragma: no cover - from_json already validated the op
            raise ProtocolError(f"unhandled control op {op!r}")
        # The socket protocol is strictly request/response per connection,
        # so the reply needs no request-id correlation.
        return protocol.Response.success(result)

    def _rebalance(self, members: list[str]) -> list[str]:
        """Keep only sessions the new ring maps here; release the rest."""
        if not members or self.name not in members:
            return self.manager.release_sessions()
        ring = HashRing(tuple(str(m) for m in members))
        strays = [
            session_id for session_id in self.manager.session_ids()
            if ring.owner(session_id) != self.name
        ]
        return self.manager.release_sessions(strays)


def reply_bytes(response: protocol.Response) -> bytes:
    """One framed reply: the header line, then the encoded envelope."""
    body = response.encode()
    header = protocol.encode({"ok": response.ok,
                              "error_type": response.error_type,
                              "length": len(body)})
    return header + b"\n" + body


def _dedup_key(payload: Any) -> str | None:
    """The request id a reply is cached under, or ``None`` when running
    the request again is harmless (a read, a control op, or no id)."""
    if not isinstance(payload, dict):
        return None
    action, request_id = payload.get("action"), payload.get("request_id")
    if (isinstance(action, str) and action in _DEDUPED_ACTIONS
            and isinstance(request_id, str) and request_id):
        return request_id
    return None


def fleet_worker_main(spec: dict[str, Any], conn) -> None:
    """``multiprocessing.Process`` target: build, report the port, serve.

    ``spec`` is a dict of picklable primitives (see :class:`FleetWorker`);
    ``conn`` is the parent's pipe end, which receives either
    ``{"port": n}`` on success or ``{"error": str}`` on boot failure and
    is then closed — all later traffic rides the socket.

    A ``"faults"`` spec entry (the :mod:`repro.service.faults` spec
    grammar, seeded by ``"faults_seed"``) arms fault injection inside this
    process before anything else runs — chaos tests inject journal faults
    worker-side this way.
    """
    try:
        if spec.get("faults"):
            faults.arm(faults.FaultInjector.parse(
                str(spec["faults"]), seed=int(spec.get("faults_seed", 0))
            ))
        worker = FleetWorker(spec)
    except BaseException as error:
        try:
            conn.send({"error": f"{type(error).__name__}: {error}"})
        finally:
            conn.close()
        raise SystemExit(1)
    conn.send({"port": worker.port})
    conn.close()
    worker.serve_forever()
