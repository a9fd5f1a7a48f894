"""Normalized compiled-plan sharing across a fleet of sessions.

The tentpole claim of the plan-cache PR: browsing sessions overwhelmingly
share query *shapes* while differing in *constants* (everyone drills
Papers -> filter year -> pivot Authors; each user picks their own year),
so a cache keyed on the normalized pattern — constants lifted into a
parameter vector — turns one user's compile into the whole fleet's.

This bench drives ``SESSIONS`` scripted users through one shared
:class:`~repro.service.manager.SessionManager`. Every session replays the
*same* action shapes with a *distinct* per-user constant, which makes the
raw result cache miss on every constant-bearing pattern (distinct results
really are distinct) while the normalized plan cache is hit by everyone
after the first user compiles the shape. The acceptance bar: the
plan-cache hit rate over the whole run must be ``>= MIN_HIT_RATE``
(0.9 — with 32 sessions and one compiling user the expected rate is
~97%). Per-action latency p50 rides along, and everything saves to
``results/plan_cache.json``.

Env knob: ``REPRO_BENCH_PAPERS`` (corpus size, default 1200).
"""

import os
import statistics
import time

from repro.bench import banner, format_table, report, save_result
from repro.datasets.academic import AcademicConfig, academic_tgdb
from repro.service.manager import SessionManager

PAPERS = int(os.environ.get("REPRO_BENCH_PAPERS", "1200"))
SESSIONS = 32
MIN_HIT_RATE = 0.9
ROW_LIMIT = 50


def _script(user: int) -> list[tuple[str, dict]]:
    """One shape for everyone; one distinct constant per user.

    The ``year > 1970 + user`` threshold is unique per user, and it
    propagates into every later pattern of the session — so each session's
    constant-bearing patterns are globally unique (raw result misses) while
    their normalized shapes are identical fleet-wide (plan hits for every
    user after the first).
    """
    year = 1970 + user
    return [
        ("open", {"type": "Papers"}),
        ("filter", {"condition": {"kind": "compare", "attribute": "year",
                                  "op": ">", "value": year}}),
        ("pivot", {"column": "Papers->Authors"}),
        ("pivot", {"column": "Authors->Institutions"}),
    ]


def test_plan_cache_sharing():
    tgdb = academic_tgdb(AcademicConfig(papers=PAPERS, seed=7))
    manager = SessionManager(tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT,
                             max_sessions=SESSIONS + 8, ttl_seconds=None)

    latencies: list[float] = []
    for user in range(SESSIONS):
        session_id = manager.create_session(f"user-{user:03d}")
        for action, params in _script(user):
            start = time.perf_counter()
            manager.apply(session_id, action, params)
            latencies.append(time.perf_counter() - start)

    cache = manager.executor.stats_payload()
    plan_stats = cache["plan_cache"]
    hit_rate = plan_stats["hit_rate"]
    p50 = statistics.median(latencies)

    report(banner(
        f"Normalized plan sharing: {SESSIONS} sessions, same shapes, "
        f"distinct constants, {PAPERS} papers"
    ))
    report(format_table(
        ["metric", "value"],
        [
            ["sessions", SESSIONS],
            ["actions", len(latencies)],
            ["action latency p50", f"{p50 * 1000:.1f} ms"],
            ["compiled plans (entries)", plan_stats["entries"]],
            ["plan-cache hits", plan_stats["hits"]],
            ["plan-cache misses", plan_stats["misses"]],
            ["normalized hit rate", f"{hit_rate:.1%}"],
            ["raw result-cache hit rate", f"{cache['hit_rate']:.1%}"],
        ],
    ))
    report(
        f"one user's compile served {plan_stats['hits']} later executions; "
        f"{plan_stats['entries']} plans cover "
        f"{plan_stats['hits'] + plan_stats['misses']} plan lookups"
    )

    save_result("plan_cache", {
        "papers": PAPERS,
        "sessions": SESSIONS,
        "actions": len(latencies),
        "latency_p50_ms": round(p50 * 1000, 2),
        "normalized_hit_rate": round(hit_rate, 4),
        "raw_hit_rate": round(cache["hit_rate"], 4),
        "plan_cache": plan_stats,
        "min_hit_rate_required": MIN_HIT_RATE,
    })

    # Every constant-bearing pattern truly re-executed (no raw-result
    # shortcut is inflating the plan hit rate's denominator base).
    assert plan_stats["hits"] + plan_stats["misses"] >= SESSIONS * 3, (
        f"expected >= {SESSIONS * 3} plan lookups, saw "
        f"{plan_stats['hits'] + plan_stats['misses']}"
    )
    assert hit_rate >= MIN_HIT_RATE, (
        f"normalized plan-cache hit rate {hit_rate:.1%} below the "
        f"{MIN_HIT_RATE:.0%} bar: {plan_stats}"
    )
