"""Per-action latency of a refinement-heavy session, engine by engine.

The paper's whole premise is sub-second interactivity: a session is a chain
of small refinements where each ETable is derived from the last. This bench
replays one scripted 30-action refinement-heavy session (filters, neighbor
filters, pivots, and reverts — the Figure 1 access pattern) two ways:

* ``planned``     — the cost-based planner behind a CachingExecutor
                    (cached semi-join reductions for multi-node tables);
* ``incremental`` — the action-delta engine: filters answered as row
                    selections over the previous relation, pivots as one
                    delta join, reverts as lineage lookups.

and records the p50/p95 *per-action* latency overall and per action class.
The acceptance bar: on the refinement actions the incremental engine exists
for (filter / nfilter / revert), its p50 must be at least
``REPRO_ACTION_MIN_SPEEDUP`` (default 2x) faster than planned+cache, and the
scripted session's delta-hit rate must be at least
``REPRO_ACTION_MIN_DELTA_HIT`` (default 0.7) — per-action cost scaling with
|current ETable| instead of |database|.

Results land in ``results/action_latency.json``. Env knobs:
``REPRO_BENCH_PAPERS`` (corpus size, default 4800; CI smoke uses a small
corpus and a relaxed speedup floor).
"""

import os
import time

from repro.bench import banner, format_table, report, save_result
from repro.core.session import EtableSession
from repro.datasets.academic import AcademicConfig, academic_tgdb
from repro.service import protocol
from repro.tgm.conditions import AttributeCompare, AttributeLike

from bench_scalability import SIZES

PAPERS = int(os.environ.get("REPRO_BENCH_PAPERS", str(max(SIZES))))
MIN_SPEEDUP = float(os.environ.get("REPRO_ACTION_MIN_SPEEDUP", "2.0"))
MIN_DELTA_HIT = float(os.environ.get("REPRO_ACTION_MIN_DELTA_HIT", "0.7"))
ROW_LIMIT = 50  # the interface paginates; matching is always complete

# The classes whose latency the incremental engine is built to collapse.
REFINEMENT_CLASSES = ("filter", "nfilter", "revert")


def _script():
    """The 30-action refinement-heavy session, as (class, callable) pairs.

    Revert indexes are 0-based history positions, fixed by construction
    (history grows by exactly one entry per action).
    """
    like = AttributeLike
    cmp_ = AttributeCompare
    return [
        ("open",    lambda s: s.open("Papers")),                          # 1
        ("filter",  lambda s: s.filter(cmp_("year", ">", 2000))),         # 2
        ("nfilter", lambda s: s.filter_by_neighbor(
            "Papers->Paper_Keywords", like("keyword", "%data%"))),        # 3
        ("filter",  lambda s: s.filter(cmp_("year", "<=", 2012))),        # 4
        ("filter",  lambda s: s.filter(like("title", "%a%"))),            # 5
        ("revert",  lambda s: s.revert(2)),                               # 6
        ("filter",  lambda s: s.filter(like("title", "%e%"))),            # 7
        ("pivot",   lambda s: s.pivot("Papers->Authors")),                # 8
        ("filter",  lambda s: s.filter(like("name", "%a%"))),             # 9
        ("nfilter", lambda s: s.filter_by_neighbor(
            "Authors->Institutions", like("name", "%Uni%"))),             # 10
        ("revert",  lambda s: s.revert(7)),                               # 11
        ("filter",  lambda s: s.filter(like("name", "%o%"))),             # 12
        ("pivot",   lambda s: s.pivot("Authors->Institutions")),          # 13
        ("filter",  lambda s: s.filter(like("country", "%a%"))),          # 14
        ("revert",  lambda s: s.revert(11)),                              # 15
        ("filter",  lambda s: s.filter(like("name", "%e%"))),             # 16
        ("revert",  lambda s: s.revert(1)),                               # 17
        ("filter",  lambda s: s.filter(cmp_("year", ">", 2005))),         # 18
        ("nfilter", lambda s: s.filter_by_neighbor(
            "Papers->Paper_Keywords", like("keyword", "%system%"))),      # 19
        ("filter",  lambda s: s.filter(like("title", "%i%"))),            # 20
        ("revert",  lambda s: s.revert(16)),                              # 21
        ("filter",  lambda s: s.filter(cmp_("year", ">", 2008))),         # 22
        ("pivot",   lambda s: s.pivot("Papers->Authors")),                # 23
        ("filter",  lambda s: s.filter(like("name", "%i%"))),             # 24
        ("revert",  lambda s: s.revert(20)),                              # 25
        ("filter",  lambda s: s.filter(like("title", "%o%"))),            # 26
        ("nfilter", lambda s: s.filter_by_neighbor(
            "Papers->Authors", like("name", "%a%"))),                     # 27
        ("filter",  lambda s: s.filter(cmp_("year", ">", 2010))),         # 28
        ("revert",  lambda s: s.revert(24)),                              # 29
        ("filter",  lambda s: s.filter(like("title", "%u%"))),            # 30
    ]


def _make_session(tgdb, engine):
    if engine == "planned":
        return EtableSession(tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT)
    if engine == "incremental":
        return EtableSession(tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT,
                             engine="incremental")
    raise ValueError(engine)


def _replay(tgdb, engine):
    """Replay the script, timing each action; returns (timings, session).

    ``timings`` is a list of (action class, seconds). Row counts per step
    are collected for the cross-engine equivalence check.
    """
    session = _make_session(tgdb, engine)
    timings = []
    row_counts = []
    for action_class, action in _script():
        start = time.perf_counter()
        action(session)
        timings.append((action_class, time.perf_counter() - start))
        row_counts.append(len(session.current))
    return timings, row_counts, session


def _percentile(values, fraction):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _class_latencies(timings, classes=None):
    return [
        seconds for action_class, seconds in timings
        if classes is None or action_class in classes
    ]


def test_action_latency():
    tgdb = academic_tgdb(AcademicConfig(papers=PAPERS, seed=7))
    script_length = len(_script())

    results = {}
    for engine in ("planned", "incremental"):
        timings, row_counts, session = _replay(tgdb, engine)
        results[engine] = {
            "timings": timings,
            "row_counts": row_counts,
            "session": session,
        }

    # Equivalence: identical row counts per step, identical final ETable
    # payloads and histories (bit-for-bit lives in the session fuzzer).
    baseline = results["planned"]
    final_payload = protocol.etable_to_json(baseline["session"].current)
    final_history = protocol.history_to_json(baseline["session"].history)
    for engine, outcome in results.items():
        assert outcome["row_counts"] == baseline["row_counts"], engine
        assert protocol.etable_to_json(
            outcome["session"].current) == final_payload, engine
        assert protocol.history_to_json(
            outcome["session"].history) == final_history, engine

    incremental_stats = results["incremental"]["session"]._executor.stats
    delta_hit_rate = incremental_stats.delta_hit_rate

    rows = []
    summary = {}
    for engine, outcome in results.items():
        all_latencies = _class_latencies(outcome["timings"])
        refine = _class_latencies(outcome["timings"], REFINEMENT_CLASSES)
        summary[engine] = {
            "p50_ms": round(_percentile(all_latencies, 0.5) * 1000, 3),
            "p95_ms": round(_percentile(all_latencies, 0.95) * 1000, 3),
            "refinement_p50_ms":
                round(_percentile(refine, 0.5) * 1000, 3),
            "refinement_p95_ms":
                round(_percentile(refine, 0.95) * 1000, 3),
            "total_ms": round(sum(all_latencies) * 1000, 1),
        }
        rows.append([
            engine,
            f"{summary[engine]['p50_ms']:.2f} ms",
            f"{summary[engine]['p95_ms']:.2f} ms",
            f"{summary[engine]['refinement_p50_ms']:.2f} ms",
            f"{summary[engine]['total_ms']:.0f} ms",
        ])

    refinement_speedup = (
        summary["planned"]["refinement_p50_ms"]
        / max(summary["incremental"]["refinement_p50_ms"], 1e-6)
    )

    report(banner(
        f"Per-action latency: {script_length}-action refinement session, "
        f"{PAPERS} papers"
    ))
    report(format_table(
        ["engine", "p50", "p95", "refine p50", "session total"], rows,
    ))
    report(
        f"incremental: {incremental_stats.delta_actions} delta-answered + "
        f"{incremental_stats.replays} lineage replays / "
        f"{incremental_stats.actions} executed actions "
        f"(delta-hit rate {delta_hit_rate:.0%}), "
        f"{incremental_stats.rows_touched} rows touched; "
        f"refinement p50 speedup vs planned+cache: {refinement_speedup:.1f}x"
    )

    save_result("action_latency", {
        "papers": PAPERS,
        "actions": script_length,
        "engines": summary,
        "refinement_classes": list(REFINEMENT_CLASSES),
        "refinement_p50_speedup_vs_planned": round(refinement_speedup, 2),
        "min_speedup_required": MIN_SPEEDUP,
        "delta_hit_rate": round(delta_hit_rate, 3),
        "min_delta_hit_required": MIN_DELTA_HIT,
        "incremental": incremental_stats.payload(),
        "equivalent_output": True,
    })

    # The acceptance bars (ISSUE 5): refinement actions must be >= 2x
    # faster at p50 than planned+cache, answered by deltas >= 70% of the
    # time. The delta-hit bar is deterministic; the latency bar is relaxed
    # via env on shared CI runners.
    assert delta_hit_rate >= MIN_DELTA_HIT, (
        f"delta-hit rate {delta_hit_rate:.2f} below the "
        f"{MIN_DELTA_HIT} floor"
    )
    assert refinement_speedup >= MIN_SPEEDUP, (
        f"incremental refinement p50 only {refinement_speedup:.2f}x faster "
        f"than planned+cache (required {MIN_SPEEDUP}x)"
    )
