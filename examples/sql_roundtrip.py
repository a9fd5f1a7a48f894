#!/usr/bin/env python3
"""Section 8 expressiveness: translate SQL join queries into ETable queries.

Takes several FK–PK join queries, converts each to an ETable query pattern
(FROM list → node types, join conditions → edge types, WHERE → node
conditions, GROUP BY → primary node type), executes both the original SQL
and the pattern, and verifies they return the same entities.

The translated patterns' SQL runs on SQLite.

Run:  python examples/sql_roundtrip.py
"""

from repro.core import execute_monolithic, graph_result_summary, results_equal
from repro.core.from_sql import sql_to_pattern
from repro.relational import SqliteDatabase
from repro.datasets.academic import AcademicConfig, academic_tgdb

QUERIES = [
    (
        "Recent papers",
        "SELECT p.title FROM Papers p WHERE p.year >= 2012 GROUP BY p.id",
    ),
    (
        "KDD papers with their conference",
        "SELECT p.title FROM Papers p, Conferences c "
        "WHERE p.conference_id = c.id AND c.acronym = 'KDD' GROUP BY p.id",
    ),
    (
        "Authors of papers tagged '%user%'",
        "SELECT a.name FROM Authors a, Paper_Authors pa, Papers p, "
        "Paper_Keywords k "
        "WHERE pa.author_id = a.id AND pa.paper_id = p.id "
        "AND k.paper_id = p.id AND k.keyword LIKE '%user%' GROUP BY a.id",
    ),
    (
        "Korean researchers at SIGMOD after 2005 (Figure 6)",
        "SELECT a.name FROM Conferences c, Papers p, Paper_Authors pa, "
        "Authors a, Institutions i "
        "WHERE p.conference_id = c.id AND pa.paper_id = p.id "
        "AND pa.author_id = a.id AND a.institution_id = i.id "
        "AND c.acronym = 'SIGMOD' AND p.year > 2005 "
        "AND i.country LIKE '%Korea%' GROUP BY a.id",
    ),
]


def main() -> None:
    tgdb = academic_tgdb(AcademicConfig(papers=1200, seed=7))
    db = tgdb.database
    with SqliteDatabase(db) as engine:
        for name, sql in QUERIES:
            print("=" * 70)
            print(name)
            print(sql)
            pattern = sql_to_pattern(sql, db, tgdb.schema, tgdb.mapping)
            print("\nTranslated ETable query pattern:")
            print(pattern.to_ascii())

            graph_result = graph_result_summary(pattern, tgdb.graph)
            sql_result = execute_monolithic(
                engine, pattern, tgdb.schema, tgdb.mapping, tgdb.graph
            )
            agree = results_equal(graph_result, sql_result)
            print(f"\nrows: {len(graph_result.primary_keys)}  "
                  f"graph == SQL execution: {agree}\n")
            assert agree


if __name__ == "__main__":
    main()
