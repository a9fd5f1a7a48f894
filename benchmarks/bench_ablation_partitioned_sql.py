"""Ablation (Section 6.2) — partitioned per-column SQL vs one monolithic join.

The paper's server "partitions a long SQL query into multiple queries
consisting of a fewer number of relations to be joined (i.e., each for a
single entity-reference column) and merges them". This bench compares the
two strategies on a query whose monolithic form multiplies several
one-to-many branches (the cross-product blow-up the optimization avoids),
verifies they return identical results, and reports timings. Both run on
one SQLite database loaded before either is timed; the load is reported
on its own.
"""

import time

from repro.bench import banner, format_table, report, save_result
from repro.core.operators import add, initiate, select, shift
from repro.core.sql_execution import (
    execute_monolithic,
    execute_partitioned,
    graph_result_summary,
    results_equal,
)
from repro.relational import SqliteDatabase
from repro.tgm.conditions import AttributeCompare


def _wide_pattern(tgdb):
    """Primary Papers with three reference branches: authors, keywords,
    and cited papers — each branch multiplies the flat join."""
    schema = tgdb.schema
    pattern = initiate(schema, "Conferences")
    pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))
    pattern = add(pattern, schema, "Conferences->Papers")
    pattern = add(pattern, schema, "Papers->Authors")
    pattern = shift(pattern, "Papers")
    pattern = add(pattern, schema, "Papers->Paper_Keywords")
    pattern = shift(pattern, "Papers")
    pattern = add(pattern, schema, "Papers->Papers (referenced)")
    return shift(pattern, "Papers")


def test_ablation_partitioned_vs_monolithic(bench_db, bench_tgdb, benchmark):
    pattern = _wide_pattern(bench_tgdb)
    start = time.perf_counter()
    with SqliteDatabase(bench_db) as engine:
        load_seconds = time.perf_counter() - start
        args = (engine, pattern, bench_tgdb.schema, bench_tgdb.mapping,
                bench_tgdb.graph)

        start = time.perf_counter()
        mono = execute_monolithic(*args)
        mono_seconds = time.perf_counter() - start

        part = benchmark.pedantic(
            execute_partitioned, args=args, rounds=1, iterations=1
        )
        start = time.perf_counter()
        execute_partitioned(*args)
        part_seconds = time.perf_counter() - start

    graph = graph_result_summary(pattern, bench_tgdb.graph)
    assert results_equal(mono, graph)
    assert results_equal(part, graph)

    # The monolithic join's intermediate size is the product of branch
    # cardinalities; the partitioned strategy touches each branch once.
    flat_tuples = _flat_join_size(bench_tgdb, pattern)
    rows = [
        ["monolithic (1 query)", len(mono.primary_keys), flat_tuples,
         f"{mono_seconds * 1000:.1f} ms"],
        [f"partitioned ({len(part.queries)} queries)",
         len(part.primary_keys), "per-branch only",
         f"{part_seconds * 1000:.1f} ms"],
    ]
    report(banner("Section 6.2 ablation: SQL execution strategies"))
    report(format_table(
        ["strategy", "result rows", "flat join tuples", "wall time"], rows
    ))
    report(f"\nflat-join blow-up factor: "
          f"{flat_tuples / max(1, len(mono.primary_keys)):.1f}x rows per entity")
    report(f"SQLite load, once for both strategies: "
           f"{load_seconds * 1000:.1f} ms")

    assert flat_tuples >= len(mono.primary_keys)
    save_result(
        "ablation_partitioned",
        {
            "load_ms": round(load_seconds * 1000, 1),
            "monolithic_ms": round(mono_seconds * 1000, 1),
            "partitioned_ms": round(part_seconds * 1000, 1),
            "result_rows": len(mono.primary_keys),
            "flat_tuples": flat_tuples,
        },
    )


def _flat_join_size(tgdb, pattern) -> int:
    from repro.core.matching import match

    return len(match(pattern, tgdb.graph))
