"""Planner + prefix-reuse speedup over a replayed incremental session.

The paper's interactivity claim (Section 7) rests on re-executing the query
after *every* user action; Section 9's future-work item #2 asks for
"accelerating the execution speed of updated queries (e.g., by reusing
intermediate results)". This bench replays a Figure 1-style 10-action
incremental browsing session four ways over the largest
``bench_scalability.py`` corpus size:

* ``naive``    — the reference BFS matcher, re-run from scratch per action;
* ``planned``  — the cost-based planner behind a CachingExecutor
                 (multi-node tables walked from cached semi-join
                 reductions, one-node tables from cached relations);
* ``one_shot`` — no session and no reuse: the naive session's 10 history
                 patterns, in order, each through
                 ``execute_pattern(engine="planned")``, which builds it
                 through a fresh CachingExecutor (the same reduction path
                 with cold caches: the cold-planner number);
* ``incremental`` — the action-delta engine: refinement actions answered
                 from the previous ETable's relation (per-action latency is
                 measured separately in ``bench_action_latency.py``).

It asserts all four produce identical ETables, requires the fastest reuse
strategy (the incremental action-delta engine) to beat naive by
``REPRO_PLANNER_MIN_SPEEDUP`` (default 3x) and the ``planned`` row by
``MIN_REUSE_SPEEDUP`` (2.5x, or the first floor when that is lower — the
naive baseline's wall time varies ~25% with machine load between runs, so
the prefix floor carries head-room; its absolute time and cache counters
are the stable regression signal), and saves
``results/planner_speedup.json``.

Env knobs: ``REPRO_BENCH_PAPERS`` overrides the corpus size (default 4800;
the CI smoke run uses a small corpus and a relaxed speedup floor).
"""

import os
import time

from repro.bench import banner, format_table, report, save_result
from repro.core.session import EtableSession
from repro.core.transform import execute_pattern
from repro.datasets.academic import AcademicConfig, academic_tgdb
from repro.tgm.conditions import AttributeCompare, AttributeLike, NeighborSatisfies

from bench_scalability import SIZES

PAPERS = int(os.environ.get("REPRO_BENCH_PAPERS", str(max(SIZES))))
MIN_SPEEDUP = float(os.environ.get("REPRO_PLANNER_MIN_SPEEDUP", "3.0"))
MIN_REUSE_SPEEDUP = 2.5
ACTION_COUNT = 10


ROW_LIMIT = 50  # the interface paginates; matching is always complete


def _replay_session(tgdb, engine="planned"):
    """The 10-action incremental script (Figure 1 style).

    Every action triggers a full re-execution of the current pattern, as
    the paper's interface does (with its pagination: ``ROW_LIMIT`` rows are
    *presented*, matching itself is complete so counts stay exact); the
    tail mixes filters, pivots, and reverts — the access pattern prefix
    reuse is built for.
    """
    session = EtableSession(
        tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT, engine=engine,
    )
    session.open("Papers")                                               # 1
    session.filter(NeighborSatisfies("Papers->Paper_Keywords",
                                     AttributeLike("keyword", "%user%")))  # 2
    session.filter(AttributeCompare("year", ">", 2006))                  # 3
    session.pivot("Papers->Authors")                                     # 4
    session.pivot("Authors->Institutions")                               # 5
    session.filter(AttributeLike("name", "%Univ%"))                      # 6
    session.revert(3)  # back to the Authors pivot (verbatim re-execution) 7
    session.pivot("Authors->Papers")                                     # 8
    session.filter(AttributeCompare("year", ">", 2010))                  # 9
    session.revert(5)  # back to the institution-filtered state           10
    return session


def _timed_replay(tgdb, engine="planned"):
    start = time.perf_counter()
    session = _replay_session(tgdb, engine)
    return time.perf_counter() - start, session


def _timed_one_shot(tgdb, history):
    """Each history pattern, in order, through the one-shot planner."""
    start = time.perf_counter()
    etables = [
        execute_pattern(entry.pattern, tgdb.graph, ROW_LIMIT, engine="planned")
        for entry in history
    ]
    return time.perf_counter() - start, etables


def _etable_signature(etable):
    return [
        (
            row.node_id,
            tuple((key, row.cells[key]) for key in sorted(row.cells)),
        )
        for row in etable.rows
    ]


def test_planner_speedup(benchmark):
    tgdb = academic_tgdb(AcademicConfig(papers=PAPERS, seed=7))

    naive_seconds, naive_session = _timed_replay(tgdb, engine="naive")
    planned_seconds, planned_session = _timed_replay(tgdb)
    incremental_seconds, incremental_session = _timed_replay(
        tgdb, engine="incremental"
    )
    one_shot_seconds, one_shot_etables = _timed_one_shot(
        tgdb, naive_session.history
    )

    # Equivalence: the four strategies replay to identical tables (no
    # action sorts, so the last one-shot ETable is in session order too).
    assert (
        _etable_signature(naive_session.current)
        == _etable_signature(planned_session.current)
        == _etable_signature(one_shot_etables[-1])
        == _etable_signature(incremental_session.current)
    )
    assert (
        naive_session.history_lines()
        == planned_session.history_lines()
        == incremental_session.history_lines()
    )
    assert len(naive_session.history) == ACTION_COUNT

    stats = planned_session._executor.stats

    planned_speedup = naive_seconds / planned_seconds
    one_shot_speedup = naive_seconds / one_shot_seconds
    incremental_speedup = naive_seconds / incremental_seconds

    report(banner(
        f"Planner + reuse speedup: {ACTION_COUNT}-action session, "
        f"{PAPERS} papers"
    ))
    report(format_table(
        ["strategy", "session time", "speedup vs naive"],
        [
            ["naive (BFS re-execution)", f"{naive_seconds * 1000:.0f} ms", "1.0x"],
            ["planned (cached reductions)", f"{planned_seconds * 1000:.0f} ms",
             f"{planned_speedup:.1f}x"],
            ["one_shot (planner, no reuse)",
             f"{one_shot_seconds * 1000:.0f} ms", f"{one_shot_speedup:.1f}x"],
            ["incremental (action deltas)",
             f"{incremental_seconds * 1000:.0f} ms",
             f"{incremental_speedup:.1f}x"],
        ],
    ))
    report(
        f"cache: {stats.hits} whole-pattern hits, {stats.prefix_hits} prefix "
        f"hits reusing {stats.reused_nodes} joined nodes, "
        f"{stats.delta_joins} delta joins"
    )

    save_result("planner_speedup", {
        "papers": PAPERS,
        "actions": ACTION_COUNT,
        "naive_ms": round(naive_seconds * 1000, 1),
        "planned_ms": round(planned_seconds * 1000, 1),
        "one_shot_ms": round(one_shot_seconds * 1000, 1),
        "incremental_ms": round(incremental_seconds * 1000, 1),
        "planned_speedup": round(planned_speedup, 2),
        "one_shot_speedup": round(one_shot_speedup, 2),
        "incremental_speedup": round(incremental_speedup, 2),
        "min_speedup_required": MIN_SPEEDUP,
        "min_reuse_speedup_required": MIN_REUSE_SPEEDUP,
        "cache": {
            "hits": stats.hits,
            "misses": stats.misses,
            "prefix_hits": stats.prefix_hits,
            "reused_nodes": stats.reused_nodes,
            "delta_joins": stats.delta_joins,
        },
        "equivalent_output": True,
    })

    # The acceptance bar: the best reuse strategy (incremental action
    # deltas) makes the replayed session at least MIN_SPEEDUP x faster
    # end-to-end than the naive path, and the planned (prefix-reuse)
    # engine stays above its own regression floor.
    assert incremental_speedup >= MIN_SPEEDUP, (
        f"incremental replay only {incremental_speedup:.2f}x faster than "
        f"naive (required {MIN_SPEEDUP}x)"
    )
    assert planned_speedup >= min(MIN_SPEEDUP, MIN_REUSE_SPEEDUP), (
        f"planned replay only {planned_speedup:.2f}x faster than naive "
        f"(required {min(MIN_SPEEDUP, MIN_REUSE_SPEEDUP)}x)"
    )

    benchmark.pedantic(_replay_session, args=(tgdb,), rounds=3, iterations=1)
