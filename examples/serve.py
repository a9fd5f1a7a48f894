#!/usr/bin/env python3
"""Run the multi-user ETable navigation service over HTTP.

Boots a :class:`~repro.service.manager.SessionManager` over a generated
corpus and serves the JSON wire protocol from the stdlib asyncio frontend
(the client–server shape of the paper's prototype, Section 6), which also
streams ETable delta frames to subscribed clients over SSE.

    python examples/serve.py                        # academic, port 8080
    python examples/serve.py --dataset movies --port 9000
    python examples/serve.py --journal-dir journals # durable sessions
    python examples/serve.py --fleet 4              # 4 worker processes
                                                    # behind a hash router

Then, from any HTTP client::

    curl -s -X POST localhost:8080/v1/sessions
    curl -s -X POST localhost:8080/v1/sessions/<id>/actions \\
         -d '{"action": "open", "params": {"type": "Papers"}}'
    curl -s 'localhost:8080/v1/sessions/<id>/etable?limit=5'
    curl -sN localhost:8080/v1/sessions/<id>/stream   # not under --fleet

``--require-auth`` mints a per-session bearer token at create time
(``Authorization: Bearer <token>``); ``--quota-actions`` rate-limits
mutating actions per session. SIGTERM (and Ctrl-C) shuts down gracefully:
in-flight requests drain, then journals flush.

Sessions journaled under ``--journal-dir`` survive a restart: nothing is
replayed at boot, and each session is rebuilt from its journal on its
first request.

``--self-test`` boots on an ephemeral port, drives a full scripted session
end-to-end over localhost (open → filter → pivot → sort → revert — with
a lockstep client folding the session's SSE stream), stops the service,
restarts it on the same journal directory, and verifies that the session
comes back on its first request, identical and with its original token —
the CI smoke path. ``--self-test --fleet N`` does the same through a
worker fleet, after killing and (``--rolling-restart``) replacing workers.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request


def build_tgdb(dataset: str, papers: int):
    if dataset == "academic":
        from repro.datasets.academic import AcademicConfig, academic_tgdb

        return academic_tgdb(AcademicConfig(papers=papers, seed=7))
    if dataset == "movies":
        from repro.datasets.movies import MoviesConfig, movies_tgdb

        return movies_tgdb(MoviesConfig(movies=400, people=300, seed=11))
    if dataset == "toy":
        from repro.datasets.toy import toy_tgdb

        return toy_tgdb()
    raise SystemExit(f"unknown dataset {dataset!r}")


def _http(url: str, method: str = "GET", body: dict | None = None,
          token: str | None = None) -> dict:
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        url, data=data, method=method, headers=headers,
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def _status(url: str, token: str) -> int:
    """The HTTP status of a GET with a bearer token (errors included)."""
    request = urllib.request.Request(
        url, headers={"Authorization": f"Bearer {token}"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status
    except urllib.error.HTTPError as error:
        error.close()
        return error.code


def _assert_token_survived(base: str, session_id: str, token: str) -> None:
    """The token the client got at create time still opens the session,
    and a wrong one is refused — auth as a client sees it."""
    url = f"{base}/v1/sessions/{session_id}/history"
    assert _status(url, token) == 200, "original auth token refused"
    assert _status(url, token + "0") == 401, "wrong auth token accepted"


class SseClient:
    """A lockstep SSE consumer: folds delta frames into local ETable state.

    Reads ``GET /v1/sessions/<id>/stream`` on a background thread, parses
    the ``event: frame`` blocks, and folds each
    :class:`~repro.service.protocol.DeltaFrame` into ``self.state`` with
    :func:`~repro.service.stream.fold_frame` — the reference client for
    the delta-stream consistency guarantee (state must equal a fresh
    ``GET .../etable`` after every action).
    """

    def __init__(self, host: str, port: int, session_id: str,
                 token: str | None = None) -> None:
        self._sock = socket.create_connection((host, port), timeout=30)
        request = (f"GET /v1/sessions/{session_id}/stream HTTP/1.1\r\n"
                   f"Host: {host}\r\n")
        if token:
            request += f"Authorization: Bearer {token}\r\n"
        self._sock.sendall((request + "\r\n").encode("latin-1"))
        self.state: dict | None = None
        self.frames: list = []
        self.actions_folded = 0
        self._lock = threading.Lock()
        self._buf = b""
        self._headers = b""
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        from repro.service import fold_frame, frame_from_json

        in_headers = True
        while True:
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                return
            if not chunk:
                return
            self._buf += chunk
            if in_headers:
                head, sep, rest = self._buf.partition(b"\r\n\r\n")
                if not sep:
                    continue
                self._headers, self._buf, in_headers = head, rest, False
            while b"\n\n" in self._buf:
                block, self._buf = self._buf.split(b"\n\n", 1)
                data = b"".join(
                    line[5:].strip() for line in block.split(b"\n")
                    if line.startswith(b"data:")
                )
                if not data:
                    continue  # ": ping" comment
                frame = frame_from_json(json.loads(data))
                with self._lock:
                    self.state = fold_frame(self.state, frame)
                    self.frames.append(frame)
                    # coalesced counts the actions a frame covers (0 for
                    # the subscribe-time snapshot), so the sum tracks how
                    # far the folded state has advanced even when
                    # backpressure merges frames.
                    self.actions_folded += frame.coalesced

    def wait_folded(self, count: int, timeout: float = 30.0) -> dict | None:
        """Block until ``count`` actions are folded; return the state."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self.actions_folded >= count:
                    return self.state
            time.sleep(0.005)
        raise AssertionError(
            f"stream folded {self.actions_folded}/{count} actions "
            f"within {timeout}s"
        )

    def wait_frames(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` frames arrived (snapshots included)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self.frames) >= count:
                    return
            time.sleep(0.005)
        raise AssertionError(f"stream delivered {len(self.frames)}/{count} "
                             f"frames within {timeout}s")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


_SCRIPTED_ACTIONS = [
    {"action": "open", "params": {"type": "Papers"}},
    {"action": "filter", "params": {"condition": {
        "kind": "compare", "attribute": "year", "op": ">", "value": 2008}}},
    {"action": "pivot", "params": {"column": "Papers->Authors"}},
    {"action": "sort", "params": {"column": "name"}},
    {"action": "revert", "params": {"index": 1}},
]


def _manager_settings(args: argparse.Namespace) -> dict:
    """The ``SessionManager`` settings of both deployments: the one
    process's manager takes them as keywords, each fleet worker from its
    spec. An option left unset is left out, so the manager's own default
    applies."""
    settings = {
        "row_limit": args.row_limit,
        "max_sessions": args.max_sessions,
        "ttl_seconds": args.ttl,
        "compact_every": args.compact_every,
        "require_auth": args.require_auth,
        "quota_actions": args.quota_actions,
        "quota_window": args.quota_window,
        "fsync_journal": args.fsync,
    }
    settings = {key: value for key, value in settings.items()
                if value is not None}
    if args.compact_every == 0:
        settings["compact_every"] = None  # 0 turns compaction off
    return settings


def _build_manager(args: argparse.Namespace, tgdb, journal_dir):
    from repro.service import SessionManager

    return SessionManager(tgdb.schema, tgdb.graph, journal_dir=journal_dir,
                          **_manager_settings(args))


def _build_fleet(args: argparse.Namespace, journal_dir: str):
    """A FleetRouter whose workers rebuild this corpus via build_tgdb."""
    from repro.service.fleet import FleetRouter

    spec = {
        "factory": f"{os.path.abspath(__file__)}:build_tgdb",
        "factory_kwargs": {"dataset": args.dataset, "papers": args.papers},
        "journal_dir": journal_dir,
        **_manager_settings(args),
    }
    if args.faults:
        spec["faults"] = args.faults
        spec["faults_seed"] = args.faults_seed
    return FleetRouter(spec, workers=args.fleet)


def _build_server(args: argparse.Namespace, manager, host: str, port: int):
    from repro.service import AsyncNavigationServer

    return AsyncNavigationServer(manager, host=host, port=port,
                                 max_inflight=args.max_inflight)


def fleet_self_test(args: argparse.Namespace) -> int:
    """Boot a worker fleet, drive a session, kill its worker, verify.

    The migration acceptance bar: after SIGKILLing the worker that owns
    the scripted session, the next request must transparently resurrect
    it on another worker from its journal — ETable cells, history, and
    auth token all bit-identical. ``--rolling-restart`` additionally
    restarts every worker one at a time and re-verifies. Last, the whole
    fleet stops and a new one boots on the same journal directory: it
    holds no live session until the session's first request, which must
    answer with the same table, history and token.
    """
    args.require_auth = True  # the fleet smoke always proves token survival
    journal_dir = args.journal_dir or tempfile.mkdtemp(prefix="etable-fleet-")
    if args.faults:
        # Chaos leg: the same fault spec is armed on both sides — in each
        # worker (via the spec, where journal.* faults bite) and here in
        # the router process (where router.send/recv faults bite). The
        # scripted session must still come through bit-identically.
        from repro.service import faults as faults_mod

        faults_mod.arm(faults_mod.FaultInjector.parse(
            args.faults, seed=args.faults_seed
        ))
        print(f"self-test: chaos armed ({args.faults!r}, "
              f"seed={args.faults_seed})")
    router = _build_fleet(args, journal_dir)
    server = _build_server(args, router, "127.0.0.1", 0).start()
    base = server.url
    print(f"self-test: fleet of {args.fleet} workers serving {args.dataset} "
          f"at {base}")

    health = _http(f"{base}/healthz")
    assert health["ok"], health
    tables = _http(f"{base}/v1/tables")["result"]["tables"]
    assert "Papers" in tables, tables

    created = _http(f"{base}/v1/sessions", "POST", {})["result"]
    session_id = created["session_id"]
    token = created["auth_token"]
    owner = router.owner_of(session_id)
    print(f"  session  -> {session_id} placed on {owner}")
    for action in _SCRIPTED_ACTIONS:
        result = _http(f"{base}/v1/sessions/{session_id}/actions", "POST",
                       action, token=token)
        assert result["ok"], result
        print(f"  {action['action']:8s} -> {result['result']}")
    before_table = _http(
        f"{base}/v1/sessions/{session_id}/etable?include_history=1",
        token=token,
    )["result"]
    before_history = _http(
        f"{base}/v1/sessions/{session_id}/history", token=token
    )["result"]["lines"]

    # SIGKILL the owner mid-session: no drain, no flush — the journal is
    # the only survivor, and it must be enough.
    router.kill_worker(owner)
    print(f"  kill     -> {owner} SIGKILLed; rerouting {session_id}")
    after_table = _http(
        f"{base}/v1/sessions/{session_id}/etable?include_history=1",
        token=token,
    )["result"]
    after_history = _http(
        f"{base}/v1/sessions/{session_id}/history", token=token
    )["result"]["lines"]
    assert before_history == after_history, (before_history, after_history)
    assert before_table == after_table, "migrated session not bit-identical"
    _assert_token_survived(base, session_id, token)
    new_owner = router.owner_of(session_id)
    fleet_stats = _http(f"{base}/v1/stats")["result"]["fleet"]
    assert fleet_stats["migrations"] >= 1, fleet_stats
    print(f"  resume   -> bit-identical on {new_owner} "
          f"(history, ETable cells, auth token); "
          f"migrations={fleet_stats['migrations']}")

    if args.rolling_restart:
        router.rolling_restart()
        rolled_table = _http(
            f"{base}/v1/sessions/{session_id}/etable?include_history=1",
            token=token,
        )["result"]
        assert rolled_table == before_table, (
            "session not bit-identical after rolling restart"
        )
        _assert_token_survived(base, session_id, token)
        fleet_stats = _http(f"{base}/v1/stats")["result"]["fleet"]
        assert fleet_stats["worker_restarts"] >= 1, fleet_stats
        print(f"  rolling  -> every worker restarted, session intact "
              f"(worker_restarts={fleet_stats['worker_restarts']})")

    # The migrated session must stay *live*, not just readable.
    result = _http(f"{base}/v1/sessions/{session_id}/actions", "POST",
                   {"action": "sort", "params": {"column": "year"}},
                   token=token)
    assert result["ok"], result
    if args.faults:
        from repro.service import faults as faults_mod

        fleet_stats = _http(f"{base}/v1/stats")["result"]["fleet"]
        injector = faults_mod.active()
        fired = injector.stats() if injector is not None else {}
        faults_mod.disarm()
        assert any(fired.values()) or fleet_stats["retries"] > 0, (
            "chaos leg ran but neither a fault fired nor a retry happened "
            f"(fired={fired}, fleet={fleet_stats})"
        )
        print(f"  chaos    -> survived with faults fired={fired}, "
              f"retries={fleet_stats['retries']}, "
              f"breaker_opens={fleet_stats['breaker_opens']}")
    final_table = _http(
        f"{base}/v1/sessions/{session_id}/etable?include_history=1",
        token=token,
    )["result"]
    final_history = _http(
        f"{base}/v1/sessions/{session_id}/history", token=token
    )["result"]["lines"]

    # Full fleet restart on the same journal directory: the new workers
    # replay nothing at boot; the session comes back on its ring owner at
    # its first request.
    server.shutdown()
    router.shutdown()
    router = _build_fleet(args, journal_dir)
    server = _build_server(args, router, "127.0.0.1", 0).start()
    base = server.url
    health = _http(f"{base}/healthz")["result"]
    assert health["live_sessions"] == 0, health
    restarted_table = _http(
        f"{base}/v1/sessions/{session_id}/etable?include_history=1",
        token=token,
    )["result"]
    restarted_history = _http(
        f"{base}/v1/sessions/{session_id}/history", token=token
    )["result"]["lines"]
    assert restarted_history == final_history, (final_history,
                                                restarted_history)
    assert restarted_table == final_table, (
        "session not bit-identical after a fleet restart"
    )
    _assert_token_survived(base, session_id, token)
    resumed = _http(f"{base}/v1/stats")["result"]["resumed"]
    assert resumed == 1, resumed
    print(f"  restart  -> new fleet resumed {session_id} on its first "
          f"request, bit-identical with its original token")
    server.shutdown()
    router.shutdown()
    print("self-test: OK (fleet)")
    return 0


def self_test(args: argparse.Namespace) -> int:
    """Boot, drive a scripted session over localhost, restart, verify.

    The scripted session is also observed over SSE by a lockstep folding
    client whose state must match a fresh ``GET .../etable`` after *every*
    action, and the restarted service must stream too.
    """
    tgdb = build_tgdb(args.dataset, args.papers)
    journal_dir = args.journal_dir or tempfile.mkdtemp(prefix="etable-journals-")

    manager = _build_manager(args, tgdb, journal_dir)
    server = _build_server(args, manager, "127.0.0.1", 0).start()
    base = server.url
    print(f"self-test: serving {args.dataset} at {base}")

    health = _http(f"{base}/healthz")
    assert health["ok"], health
    tables = _http(f"{base}/v1/tables")["result"]["tables"]
    assert "Papers" in tables, tables

    created = _http(f"{base}/v1/sessions", "POST", {})["result"]
    session_id = created["session_id"]
    token = created.get("auth_token")
    assert bool(token) == args.require_auth, created

    sse = SseClient(server.host, server.port, session_id, token=token)
    for index, action in enumerate(_SCRIPTED_ACTIONS, start=1):
        result = _http(f"{base}/v1/sessions/{session_id}/actions", "POST",
                       action, token=token)
        assert result["ok"], result
        print(f"  {action['action']:8s} -> {result['result']}")
        folded = sse.wait_folded(index)
        fetched = _http(f"{base}/v1/sessions/{session_id}/etable",
                        token=token)["result"]["etable"]
        assert folded == fetched, (
            f"stream fold diverged from GET after {action['action']}"
        )
    kinds = [frame.kind for frame in sse.frames]
    print(f"  stream   -> {len(sse.frames)} frames ({kinds}), "
          f"fold == GET after every action")
    sse.close()
    before_table = _http(
        f"{base}/v1/sessions/{session_id}/etable?include_history=1",
        token=token,
    )["result"]
    before_history = _http(
        f"{base}/v1/sessions/{session_id}/history", token=token
    )["result"]["lines"]

    # "Kill" the service and restart it on the same journal directory: the
    # replayed session must be identical (the acceptance bar of the
    # durable-journal design). shutdown() drains in-flight requests and
    # manager.shutdown() flushes journals — the SIGTERM path.
    server.shutdown()
    manager.shutdown()
    manager2 = _build_manager(args, tgdb, journal_dir)
    server2 = _build_server(args, manager2, "127.0.0.1", 0).start()
    base2 = server2.url
    # Nothing is replayed at boot: the session comes back on its first
    # request, with the token its client already holds.
    health = _http(f"{base2}/healthz")["result"]
    assert health["live_sessions"] == 0, health
    after_table = _http(
        f"{base2}/v1/sessions/{session_id}/etable?include_history=1",
        token=token,
    )["result"]
    after_history = _http(
        f"{base2}/v1/sessions/{session_id}/history", token=token
    )["result"]["lines"]
    assert before_history == after_history, (before_history, after_history)
    assert before_table == after_table
    if args.require_auth:
        _assert_token_survived(base2, session_id, token)
    # The restarted service must stream the resumed session too.
    sse2 = SseClient(server2.host, server2.port, session_id, token=token)
    sse2.wait_frames(1)  # the subscribe-time snapshot
    result = _http(f"{base2}/v1/sessions/{session_id}/actions", "POST",
                   {"action": "sort", "params": {"column": "year"}},
                   token=token)
    assert result["ok"], result
    folded = sse2.wait_folded(1)
    fetched = _http(f"{base2}/v1/sessions/{session_id}/etable",
                    token=token)["result"]["etable"]
    assert folded == fetched
    stream_stats = _http(f"{base2}/v1/stats")["result"]["stream"]
    assert stream_stats["frames"] >= 2, stream_stats
    print(f"  stream   -> resumed session streams after restart "
          f"({stream_stats})")
    sse2.close()
    stats = _http(f"{base2}/v1/stats")["result"]
    assert stats["resumed"] == 1, stats["resumed"]
    print(f"  restart  -> replayed {len(after_history)} history steps "
          f"bit-identically on the first request "
          f"(cache hits: {stats['cache']['hits']})")
    server2.shutdown()
    manager2.shutdown()
    print("self-test: OK")
    return 0


def _row_limit(text: str) -> int:
    """``--row-limit`` counts rows, so it is never negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="academic",
                        choices=["academic", "movies", "toy"])
    parser.add_argument("--papers", type=int, default=1200,
                        help="academic corpus size (default 1200)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--require-auth", action="store_true",
                        help="mint a per-session bearer token at create "
                             "time; every later request must present it")
    parser.add_argument("--quota-actions", type=int,
                        help="max mutating actions per session per quota "
                             "window (default: unlimited)")
    parser.add_argument("--quota-window", type=float,
                        help="quota window length in seconds (default: "
                             "the session manager's)")
    parser.add_argument("--row-limit", type=_row_limit, default=50,
                        help="presented rows per table (pagination)")
    parser.add_argument("--journal-dir", default=None,
                        help="directory for durable session journals "
                             "(a session journaled there resumes on its "
                             "first request after a restart)")
    parser.add_argument("--max-sessions", type=int,
                        help="live sessions per process (default: the "
                             "session manager's)")
    parser.add_argument("--ttl", type=float,
                        help="idle session TTL in seconds (default: the "
                             "session manager's)")
    parser.add_argument("--compact-every", type=int,
                        help="checkpoint each session journal every N "
                             "actions (0 disables compaction; default: "
                             "the session manager's)")
    parser.add_argument("--fleet", type=int, default=0, metavar="N",
                        help="serve from a fleet of N worker processes "
                             "behind a consistent-hash router (0 = "
                             "single-process); sessions migrate between "
                             "workers by journal handoff")
    parser.add_argument("--rolling-restart", action="store_true",
                        help="with --self-test --fleet: also restart every "
                             "worker one at a time and verify the session "
                             "survives bit-identically")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync every journal append (durability over "
                             "latency; default relies on OS flush)")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="shed requests over this many concurrent "
                             "dispatches with 503 + Retry-After "
                             "(default: unlimited)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="arm deterministic fault injection, e.g. "
                             "'journal.write:raise:0.05,router.recv:raise:"
                             "0.1' (the repro.service.faults spec "
                             "grammar); with --self-test --fleet this runs "
                             "the chaos leg")
    parser.add_argument("--faults-seed", type=int, default=0,
                        help="seed for the fault injector's RNG (default 0)")
    parser.add_argument("--self-test", action="store_true",
                        help="boot, drive a scripted session, verify, exit")
    args = parser.parse_args(argv)

    if args.self_test:
        if args.fleet:
            return fleet_self_test(args)
        return self_test(args)

    if args.faults:
        from repro.service import faults as faults_mod

        faults_mod.arm(faults_mod.FaultInjector.parse(
            args.faults, seed=args.faults_seed
        ))
        print(f"fault injection armed: {args.faults!r} "
              f"(seed={args.faults_seed})")

    if args.fleet:
        journal_dir = (args.journal_dir
                       or tempfile.mkdtemp(prefix="etable-fleet-"))
        print(f"booting a fleet of {args.fleet} workers "
              f"(each generating the {args.dataset} corpus)...")
        manager = _build_fleet(args, journal_dir)
    else:
        print(f"generating {args.dataset} corpus...")
        tgdb = build_tgdb(args.dataset, args.papers)
        manager = _build_manager(args, tgdb, args.journal_dir)
    server = _build_server(args, manager, args.host, args.port).start()
    print(f"serving ETable navigation API at {server.url} "
          "(Ctrl-C or SIGTERM to stop)")
    # The server runs its event loop on a daemon thread; the main thread
    # just waits for a stop signal so SIGTERM and Ctrl-C share one graceful
    # path: drain in-flight requests, then flush every session journal.
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    print("\nshutting down (draining in-flight requests)")
    server.shutdown()
    manager.shutdown()
    print("journals flushed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
