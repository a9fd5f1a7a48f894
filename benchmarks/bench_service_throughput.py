"""Multi-user service throughput: N interleaved sessions over one manager.

The ROADMAP's north star is a service for heavy multi-user traffic; the
navigation-server literature says that workload is many cheap stateful
sessions over one shared database. This bench replays ``SESSIONS``
concurrent scripted users (4 script shapes, parameterized per user so the
patterns overlap but are not identical) against one
:class:`~repro.service.manager.SessionManager` and reports:

* sessions/sec and actions/sec end-to-end;
* per-action latency p50/p95 (the interactivity claim of Section 7 is a
  *latency* claim — every action re-executes the pattern);
* shared-cache effectiveness: whole-pattern hits + prefix hits produced by
  one user's work landing in another user's session — reported as two hit
  rates: **raw** (the result cache, which distinct constants always miss)
  and **normalized** (the compiled-plan cache, keyed on the pattern with
  its constants lifted out, so users filtering different years still share
  one plan).

Correctness rides along: after the concurrent run, every session's final
ETable and history are compared against a serial replay of the same script
on a fresh single-user manager — per-session isolation under concurrency
has to produce exactly the serial answer.

Saves ``results/service_throughput.json``. Env knobs:
``REPRO_BENCH_PAPERS`` (corpus size, default 1200),
``REPRO_SERVICE_BENCH_SESSIONS`` (concurrent users, default 32).
"""

import os
import statistics
import threading
import time

from repro.bench import banner, format_table, report, save_result
from repro.datasets.academic import AcademicConfig, academic_tgdb
from repro.service.manager import SessionManager

PAPERS = int(os.environ.get("REPRO_BENCH_PAPERS", "1200"))
SESSIONS = int(os.environ.get("REPRO_SERVICE_BENCH_SESSIONS", "32"))
ROW_LIMIT = 50  # the interface paginates; matching is always complete


def _script(user: int) -> list[tuple[str, dict]]:
    """One user's action list; 4 shapes, parameterized by user index.

    Scripts share long pattern prefixes across users on purpose — that is
    the browsing workload the shared cache amortizes (everyone starts from
    the same table list and drills in along popular paths).
    """
    year = 2004 + (user % 6)
    compare = {"kind": "compare", "attribute": "year", "op": ">",
               "value": year}
    shape = user % 4
    if shape == 0:  # drill into authors, then revert to the filter
        return [
            ("open", {"type": "Papers"}),
            ("filter", {"condition": compare}),
            ("pivot", {"column": "Papers->Authors"}),
            ("sort", {"column": "name"}),
            ("revert", {"index": 1}),
        ]
    if shape == 1:  # keyword-filtered papers, institutions via authors
        return [
            ("open", {"type": "Papers"}),
            ("filter", {"condition": {
                "kind": "neighbor", "edge_type": "Papers->Paper_Keywords",
                "inner": {"kind": "like", "attribute": "keyword",
                          "pattern": "%data%", "negate": False}}}),
            ("filter", {"condition": compare}),
            ("pivot", {"column": "Papers->Authors"}),
            ("pivot", {"column": "Authors->Institutions"}),
        ]
    if shape == 2:  # conference-centric browsing with a seeall
        return [
            ("open", {"type": "Conferences"}),
            ("seeall", {"row": user % 3, "column": "Papers"}),
            ("filter", {"condition": compare}),
            ("sort", {"column": "year", "descending": True}),
            ("hide", {"column": "page_end"}),
        ]
    return [  # author-centric browsing with a revert back to the start
        ("open", {"type": "Authors"}),
        ("pivot", {"column": "Authors->Papers"}),
        ("filter", {"condition": compare}),
        ("revert", {"index": 0}),
        ("pivot", {"column": "Authors->Institutions"}),
    ]


def _signature(manager: SessionManager, session_id: str):
    """Final-state fingerprint: full ETable serialization + history lines."""
    etable = manager.apply(session_id, "etable", {"include_history": True})
    history = manager.apply(session_id, "history", {})
    return etable, history["lines"]


def _run_concurrent(tgdb):
    manager = SessionManager(tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT,
                             max_sessions=SESSIONS + 8, ttl_seconds=None)
    session_ids = [manager.create_session(f"user-{user:03d}")
                   for user in range(SESSIONS)]
    latencies: list[list[float]] = [[] for _ in range(SESSIONS)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(SESSIONS)

    def drive(user: int) -> None:
        try:
            barrier.wait(timeout=60)
            for action, params in _script(user):
                start = time.perf_counter()
                manager.apply(session_ids[user], action, params)
                latencies[user].append(time.perf_counter() - start)
        except BaseException as error:  # noqa: BLE001 - recorded, re-raised
            errors.append(error)

    threads = [threading.Thread(target=drive, args=(user,), daemon=True)
               for user in range(SESSIONS)]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    wall = time.perf_counter() - wall_start
    if errors:
        raise errors[0]
    return manager, session_ids, latencies, wall


def test_service_throughput():
    tgdb = academic_tgdb(AcademicConfig(papers=PAPERS, seed=7))

    manager, session_ids, latencies, wall = _run_concurrent(tgdb)

    flat = sorted(lat for per_user in latencies for lat in per_user)
    actions_total = len(flat)
    p50 = statistics.median(flat)
    p95 = flat[min(len(flat) - 1, int(len(flat) * 0.95))]
    cache = manager.executor.stats_payload()

    # --- Correctness under concurrency: serial oracle per script --------
    serial = SessionManager(tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT,
                            ttl_seconds=None)
    for user in range(SESSIONS):
        serial_id = serial.create_session(f"user-{user:03d}")
        for action, params in _script(user):
            serial.apply(serial_id, action, params)
        concurrent_sig = _signature(manager, session_ids[user])
        serial_sig = _signature(serial, serial_id)
        assert concurrent_sig == serial_sig, (
            f"session {session_ids[user]} diverged from serial execution"
        )

    # --- Acceptance bars ------------------------------------------------
    assert len(session_ids) >= 32, (
        f"bench must sustain >= 32 concurrent sessions, ran {len(session_ids)}"
    )
    assert all(len(per_user) == len(_script(user))
               for user, per_user in enumerate(latencies))
    hit_rate = cache["hit_rate"]
    shared_hits = cache["hits"] + cache["prefix_hits"]
    assert shared_hits > 0 and hit_rate > 0, (
        f"shared cache never hit across {SESSIONS} sessions: {cache}"
    )
    # The scripts parameterize the year per user on purpose: a session
    # with a fresh constant misses the raw result cache, but its shape was
    # already compiled by an earlier user, so the *normalized* plan cache
    # (consulted exactly on those misses) must have absorbed real traffic.
    normalized_hit_rate = cache["plan_cache"]["hit_rate"]
    assert cache["plan_cache"]["hits"] > 0 and normalized_hit_rate > 0, (
        f"no result-cache miss ever reused a compiled plan across "
        f"{SESSIONS} sessions: {cache['plan_cache']}"
    )
    # Distinct shapes are few, distinct constants are many: compiled-plan
    # entries must stay well below the result cache's distinct patterns.
    assert cache["plan_cache"]["entries"] < cache["misses"], (
        f"plan normalization collapsed nothing: "
        f"{cache['plan_cache']['entries']} plans for {cache['misses']} "
        f"distinct executed patterns"
    )

    report(banner(
        f"Service throughput: {SESSIONS} concurrent sessions, "
        f"{PAPERS} papers"
    ))
    report(format_table(
        ["metric", "value"],
        [
            ["concurrent sessions", SESSIONS],
            ["total actions", actions_total],
            ["wall time", f"{wall:.2f} s"],
            ["sessions/sec", f"{SESSIONS / wall:.1f}"],
            ["actions/sec", f"{actions_total / wall:.1f}"],
            ["action latency p50", f"{p50 * 1000:.1f} ms"],
            ["action latency p95", f"{p95 * 1000:.1f} ms"],
            ["raw whole-pattern hit rate", f"{hit_rate:.0%}"],
            ["normalized plan-cache hit rate", f"{normalized_hit_rate:.0%}"],
            ["prefix hits", cache["prefix_hits"]],
            ["delta joins", cache["delta_joins"]],
        ],
    ))
    report(
        f"every concurrent session matched its serial oracle "
        f"({SESSIONS} sessions x ~5 actions)"
    )

    save_result("service_throughput", {
        "papers": PAPERS,
        "sessions": SESSIONS,
        "actions": actions_total,
        "wall_seconds": round(wall, 3),
        "sessions_per_sec": round(SESSIONS / wall, 2),
        "actions_per_sec": round(actions_total / wall, 2),
        "latency_p50_ms": round(p50 * 1000, 2),
        "latency_p95_ms": round(p95 * 1000, 2),
        "raw_hit_rate": round(hit_rate, 4),
        "normalized_hit_rate": round(normalized_hit_rate, 4),
        "cache": cache,
        "serial_equivalent": True,
    })
