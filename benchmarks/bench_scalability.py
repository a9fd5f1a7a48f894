"""Scalability sweep — execution time vs corpus size.

The paper's system ran interactively on a 38k-paper corpus; this bench
sweeps the generator over increasing sizes and reports the cost of (a)
database translation, (b) the Figure 1 interactive query, and (c) its
monolithic SQL equivalent on SQLite, demonstrating laptop-scale
interactivity at the evaluation's scale knob. Loading SQLite is reported
on its own, outside the SQL query's time. The benchmark itself measures the
mid-size query.
"""

import time

from repro.bench import banner, format_table, report, save_result
from repro.core.operators import initiate, select
from repro.core.sql_execution import execute_monolithic
from repro.core.transform import execute_pattern
from repro.datasets.academic import (
    AcademicConfig,
    default_categorical_attributes,
    default_label_overrides,
    generate_academic,
)
from repro.relational import SqliteDatabase
from repro.tgm.conditions import AttributeLike, NeighborSatisfies
from repro.translate import translate_database

SIZES = [300, 1200, 4800]


def _figure1_pattern(tgdb):
    pattern = initiate(tgdb.schema, "Papers")
    return select(
        pattern,
        NeighborSatisfies(
            "Papers->Paper_Keywords", AttributeLike("keyword", "%user%")
        ),
    )


def test_scalability_sweep(benchmark):
    rows = []
    series = {}
    mid_tgdb = None
    mid_pattern = None
    for papers in SIZES:
        start = time.perf_counter()
        db, _ = generate_academic(AcademicConfig(papers=papers, seed=7))
        generate_seconds = time.perf_counter() - start

        start = time.perf_counter()
        tgdb = translate_database(
            db,
            categorical_attributes=default_categorical_attributes(),
            label_overrides=default_label_overrides(),
        )
        translate_seconds = time.perf_counter() - start

        pattern = _figure1_pattern(tgdb)
        start = time.perf_counter()
        etable = execute_pattern(pattern, tgdb.graph)
        graph_seconds = time.perf_counter() - start

        start = time.perf_counter()
        with SqliteDatabase(db) as engine:
            load_seconds = time.perf_counter() - start
            start = time.perf_counter()
            execute_monolithic(
                engine, pattern, tgdb.schema, tgdb.mapping, tgdb.graph
            )
            sql_seconds = time.perf_counter() - start

        rows.append([
            papers,
            f"{generate_seconds * 1000:.0f} ms",
            f"{translate_seconds * 1000:.0f} ms",
            f"{graph_seconds * 1000:.0f} ms",
            f"{load_seconds * 1000:.0f} ms",
            f"{sql_seconds * 1000:.0f} ms",
            len(etable),
        ])
        series[papers] = {
            "translate_ms": round(translate_seconds * 1000, 1),
            "graph_query_ms": round(graph_seconds * 1000, 1),
            "sql_load_ms": round(load_seconds * 1000, 1),
            "sql_query_ms": round(sql_seconds * 1000, 1),
        }
        if papers == SIZES[1]:
            mid_tgdb, mid_pattern = tgdb, pattern

    report(banner("Scalability: corpus size vs pipeline stage cost"))
    report(format_table(
        ["papers", "generate", "translate", "graph query", "SQL load",
         "SQL query", "result rows"],
        rows,
    ))

    assert mid_tgdb is not None
    benchmark.pedantic(execute_pattern, args=(mid_pattern, mid_tgdb.graph),
                       rounds=3, iterations=1)

    # Interactivity claim: the graph-side query stays sub-second even at
    # the largest swept size (the paper ran live on 38k papers).
    assert series[SIZES[-1]]["graph_query_ms"] < 1000
    save_result("scalability", series)
