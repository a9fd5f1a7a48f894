"""Async serving core: idle-session capacity, throughput, bytes on wire.

The paper's deployment shape (Section 6) is many *mostly idle* browsing
sessions per server: a user stares at an ETable for minutes between
actions, but the interface should update the moment something changes.
The asyncio frontend pays one socket per session for that idleness, not
a thread, and pushes delta frames over SSE instead of having clients
re-fetch the page. This bench measures:

* **idle capacity** — ``IDLE_SESSIONS`` live sessions, each holding an
  open SSE stream against one server process (no thread per connection);
  a sampled session must still receive action frames while the rest idle.
* **throughput** — actions/s of ``CLIENTS`` keep-alive clients replaying
  ``ACTIONS_PER_CLIENT`` (30) scripted actions each (recorded, not
  gated).
* **bytes on wire** — a 30-action refinement session (the Figure 1 access
  pattern: filters, sorts, neighbor filters, one pivot round-trip,
  reverts); the summed delta-frame bytes must be at most
  ``MAX_DELTA_FRACTION`` (25%) of the full-page re-fetch bytes a
  request/response client would fetch for the same session.

Saves ``results/async_streaming.json``. Env knobs:
``REPRO_BENCH_PAPERS`` (corpus, default 1200),
``REPRO_STREAM_BENCH_IDLE`` (idle streams, default 1000),
``REPRO_STREAM_BENCH_CLIENTS`` (throughput clients, default 8).
"""

import json
import os
import socket
import threading
import time

from repro.bench import banner, report, save_result
from repro.core.session import EtableSession
from repro.datasets.academic import AcademicConfig, academic_tgdb
from repro.service import AsyncNavigationServer, protocol
from repro.service.manager import SessionManager
from repro.service.stream import FrameSource, payload_bytes

PAPERS = int(os.environ.get("REPRO_BENCH_PAPERS", "1200"))
IDLE_SESSIONS = int(os.environ.get("REPRO_STREAM_BENCH_IDLE", "1000"))
CLIENTS = int(os.environ.get("REPRO_STREAM_BENCH_CLIENTS", "8"))
ACTIONS_PER_CLIENT = 30
MAX_DELTA_FRACTION = 0.25
ROW_LIMIT = 50  # the interface paginates; matching is always complete


def _raise_fd_limit(needed: int) -> int:
    """Best-effort RLIMIT_NOFILE bump; returns the usable ceiling."""
    try:
        import resource
    except ImportError:  # non-POSIX: trust the platform default
        return needed
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= needed:
        return needed
    target = needed if hard == resource.RLIM_INFINITY else min(needed, hard)
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
    except (ValueError, OSError):
        return soft
    return target


def _cmp(attribute, op, value):
    return {"kind": "compare", "attribute": attribute, "op": op,
            "value": value}


def _like(attribute, pattern):
    return {"kind": "like", "attribute": attribute, "pattern": pattern}


def _refinement_script():
    """The 30-action wire-level refinement session (Figure 1 shape).

    Mostly filters/sorts/nfilters over one primary (small deltas), plus
    one pivot round-trip (two structural snapshots) so the wire-fraction
    bar is not met by excluding the expensive frame shape. Refinements
    after a revert narrow with ``like`` conditions — the progressive
    narrowing of the paper's Figure 1 pattern — because a broad range
    re-filter replaces the whole presented window and ships as a
    near-snapshot either way. Revert indexes are 0-based history
    positions, fixed by construction (history grows by exactly one entry
    per action).
    """
    return [
        ("open", {"type": "Papers"}),                                     # 1
        ("filter", {"condition": _cmp("year", ">", 2000)}),               # 2
        ("sort", {"column": "year", "descending": True}),                 # 3
        ("filter", {"condition": _like("title", "%a%")}),                 # 4
        ("nfilter", {"column": "Papers->Authors",
                     "condition": _like("name", "%a%")}),                 # 5
        ("revert", {"index": 3}),                                         # 6
        ("filter", {"condition": _like("title", "%e%")}),                 # 7
        ("sort", {"column": "title"}),                                    # 8
        ("filter", {"condition": _cmp("year", "<=", 2012)}),              # 9
        ("hide", {"column": "title"}),                                    # 10
        ("show", {"column": "title"}),                                    # 11
        ("filter", {"condition": _like("title", "%i%")}),                 # 12
        ("revert", {"index": 8}),                                         # 13
        ("filter", {"condition": _like("title", "%m%")}),                 # 14
        ("sort", {"column": "year"}),                                     # 15
        ("filter", {"condition": _like("title", "%o%")}),                 # 16
        ("nfilter", {"column": "Papers->Paper_Keywords",
                     "condition": _like("keyword", "%data%")}),           # 17
        ("revert", {"index": 14}),                                        # 18
        ("filter", {"condition": _like("title", "%r%")}),                 # 19
        ("pivot", {"column": "Papers->Authors"}),                         # 20
        ("revert", {"index": 18}),                                        # 21
        ("sort", {"column": "title", "descending": True}),                # 22
        ("filter", {"condition": _like("title", "%u%")}),                 # 23
        ("revert", {"index": 21}),                                        # 24
        ("filter", {"condition": _like("title", "%i%")}),                 # 25
        ("sort", {"column": "year", "descending": True}),                 # 26
        ("filter", {"condition": _like("title", "%s%")}),                 # 27
        ("nfilter", {"column": "Papers->Authors",
                     "condition": _like("name", "%e%")}),                 # 28
        ("revert", {"index": 25}),                                        # 29
        ("filter", {"condition": _like("title", "%n%")}),                 # 30
    ]


def _throughput_script():
    """Short cache-friendly action loop every throughput client replays."""
    return [
        ("open", {"type": "Papers"}),
        ("filter", {"condition": _cmp("year", ">", 2004)}),
        ("sort", {"column": "year", "descending": True}),
        ("sort", {"column": "title"}),
        ("hide", {"column": "year"}),
        ("show", {"column": "year"}),
    ]


def _http(connection, method, path, body=None):
    payload = json.dumps(body).encode("utf-8") if body is not None else None
    connection.request(method, path, body=payload,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    data = json.loads(response.read())
    assert response.status == 200, (response.status, data)
    return data


# ----------------------------------------------------------------------
# Part 1: idle SSE capacity
# ----------------------------------------------------------------------
def _measure_idle_capacity(tgdb, results):
    import http.client

    usable = _raise_fd_limit(IDLE_SESSIONS * 2 + 256)
    idle_target = IDLE_SESSIONS
    if usable < IDLE_SESSIONS * 2 + 256:
        idle_target = max(64, (usable - 256) // 2)
        report(f"  [capped] fd limit {usable} allows only {idle_target} "
               f"idle streams (asked for {IDLE_SESSIONS})")

    manager = SessionManager(tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT,
                             max_sessions=idle_target + 8)
    server = AsyncNavigationServer(manager, port=0).start()
    sockets = []
    started = time.perf_counter()
    try:
        session_ids = []
        for index in range(idle_target):
            sid = manager.create_session(f"idle-{index}")
            manager.apply(sid, "open", {"type": "Papers"})
            session_ids.append(sid)
        opened = time.perf_counter()
        for sid in session_ids:
            sock = socket.create_connection((server.host, server.port),
                                            timeout=30)
            sock.sendall(
                f"GET /v1/sessions/{sid}/stream HTTP/1.1\r\n"
                f"Host: bench\r\n\r\n".encode()
            )
            sockets.append(sock)
        deadline = time.monotonic() + 120
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=30)
        open_streams = 0
        while time.monotonic() < deadline:
            stats = _http(connection, "GET", "/v1/stats")["result"]
            open_streams = stats["stream"]["open_streams"]
            if open_streams >= idle_target:
                break
            time.sleep(0.05)
        held = time.perf_counter()
        assert open_streams >= idle_target, (
            f"only {open_streams}/{idle_target} SSE streams established"
        )

        # The server must still *push* while every other session idles:
        # act on one sampled session and watch its stream deliver.
        sample = session_ids[0]
        sample_sock = sockets[0]
        sample_sock.settimeout(30)
        manager.apply(sample, "sort", {"column": "year"})
        buf = b""
        while b'"kind":"delta"' not in buf:  # frames are compact JSON
            chunk = sample_sock.recv(65536)
            assert chunk, "sampled SSE stream closed unexpectedly"
            buf += chunk
        connection.close()
        results["idle"] = {
            "streams_held": open_streams,
            "open_all_sessions_s": round(opened - started, 3),
            "establish_streams_s": round(held - opened, 3),
            "sampled_push_delivered": True,
        }
    finally:
        for sock in sockets:
            try:
                sock.close()
            except OSError:
                pass
        server.shutdown()
        manager.shutdown()
    return idle_target


# ----------------------------------------------------------------------
# Part 2: actions/s
# ----------------------------------------------------------------------
def _measure_throughput(tgdb):
    import http.client

    manager = SessionManager(tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT,
                             max_sessions=CLIENTS + 4)
    server = AsyncNavigationServer(manager, port=0).start()
    script = _throughput_script()
    errors = []
    barrier = threading.Barrier(CLIENTS + 1)

    def client(index):
        try:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=60)
            sid = _http(connection, "POST", "/v1/sessions",
                        {})["result"]["session_id"]
            barrier.wait()
            for turn in range(ACTIONS_PER_CLIENT):
                action, params = script[turn % len(script)]
                _http(connection, "POST", f"/v1/sessions/{sid}/actions",
                      {"action": action, "params": params})
            connection.close()
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append((index, error))
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    server.shutdown()
    manager.shutdown()
    assert not errors, errors[:3]
    return (CLIENTS * ACTIONS_PER_CLIENT) / elapsed


# ----------------------------------------------------------------------
# Part 3: delta frames vs full re-fetch, 30-action session
# ----------------------------------------------------------------------
def _measure_wire_bytes(tgdb):
    source = FrameSource()
    session = EtableSession(tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT)
    stream_bytes = 0
    refetch_bytes = 0
    per_action = []
    for action, params in _refinement_script():
        protocol.apply_action(session, action, params)
        payload = protocol.etable_to_json(session.current)
        frame = source.frame_for(payload, action=action)
        frame_bytes = payload_bytes(protocol.frame_to_json(frame))
        full_bytes = payload_bytes(payload)
        stream_bytes += frame_bytes
        refetch_bytes += full_bytes
        per_action.append((action, frame.kind, frame_bytes, full_bytes))
    return stream_bytes, refetch_bytes, per_action


def test_async_streaming():
    tgdb = academic_tgdb(AcademicConfig(papers=PAPERS, seed=7))
    results = {}

    report(banner(
        f"Async serving core: {PAPERS} papers, {IDLE_SESSIONS} idle "
        f"streams, {CLIENTS}x{ACTIONS_PER_CLIENT} throughput actions"
    ))

    idle_target = _measure_idle_capacity(tgdb, results)
    report(
        f"idle capacity: {results['idle']['streams_held']} SSE streams "
        f"held by one process "
        f"(sessions opened in {results['idle']['open_all_sessions_s']}s, "
        f"streams established in "
        f"{results['idle']['establish_streams_s']}s), sampled session "
        f"still receives pushed delta frames"
    )

    rate = _measure_throughput(tgdb)
    results["throughput"] = {
        "clients": CLIENTS,
        "actions_per_client": ACTIONS_PER_CLIENT,
        "actions_per_s": round(rate, 1),
    }
    report(f"throughput: {rate:.0f} actions/s over {CLIENTS} keep-alive "
           f"clients x {ACTIONS_PER_CLIENT} actions")

    stream_bytes, refetch_bytes, per_action = _measure_wire_bytes(tgdb)
    fraction = stream_bytes / refetch_bytes
    snapshots = sum(1 for _, kind, _, _ in per_action if kind == "snapshot")
    results["wire"] = {
        "actions": len(per_action),
        "delta_frame_bytes": stream_bytes,
        "full_refetch_bytes": refetch_bytes,
        "fraction": round(fraction, 4),
        "snapshot_frames": snapshots,
    }
    report(
        f"bytes on wire ({len(per_action)}-action refinement session): "
        f"delta frames {stream_bytes:,} B vs full re-fetch "
        f"{refetch_bytes:,} B -> {fraction:.1%} "
        f"({snapshots} structural snapshots)"
    )
    assert fraction <= MAX_DELTA_FRACTION, (
        f"delta frames shipped {fraction:.1%} of the re-fetch bytes "
        f"(ceiling {MAX_DELTA_FRACTION:.0%})"
    )

    save_result("async_streaming", {
        "config": {
            "papers": PAPERS,
            "idle_sessions": idle_target,
            "clients": CLIENTS,
            "actions_per_client": ACTIONS_PER_CLIENT,
            "max_delta_fraction": MAX_DELTA_FRACTION,
        },
        **results,
    })


if __name__ == "__main__":
    test_async_streaming()
