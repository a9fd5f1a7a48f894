"""Figures 2 & 3 — exploration routes and the relational schema.

Figure 2 shows three ways to examine a paper's authors (click a name, click
the count badge, pivot the column); the bench replays all three against the
same paper and verifies they agree, benchmarking the cheapest interactive
route. Figure 3 is the 7-relation / 7-FK relational schema itself; the
bench validates its structure and benchmarks corpus generation.
"""

from repro.bench import banner, format_table, report, save_result
from repro.core.session import EtableSession
from repro.datasets.academic import AcademicConfig, generate_academic


def test_figure2_exploration_routes(bench_tgdb, benchmark):
    schema, graph = bench_tgdb.schema, bench_tgdb.graph
    paper = graph.find_by_label("Papers", "Making database systems usable")
    expected = {
        node.attributes["name"]
        for node in graph.neighbors(paper.node_id, "Papers->Authors")
    }

    def route_b():
        """(b) click the author-count badge — the benchmarked route."""
        session = EtableSession(schema, graph)
        session.open("Papers")
        row = session.current.row_for_node(paper.node_id)
        return session.see_all(row, "Papers->Authors")

    result_b = benchmark.pedantic(route_b, rounds=3, iterations=1)
    names_b = {row.attributes["name"] for row in result_b.rows}

    # (a) click one author's name -> a single-row table.
    session_a = EtableSession(schema, graph)
    session_a.open("Papers")
    table_a = session_a.current
    ref = table_a.refs(table_a.row_for_node(paper.node_id), "Papers->Authors")[0]
    result_a = session_a.single(ref)
    names_a = {row.attributes["name"] for row in result_a.rows}

    # (c) pivot the whole column -> authors of all papers.
    session_c = EtableSession(schema, graph)
    session_c.open("Papers")
    result_c = session_c.pivot("Papers->Authors")
    names_c = {row.attributes["name"] for row in result_c.rows}

    rows = [
        ["(a) click author name", len(result_a), "1 row, the clicked author"],
        ["(b) click count badge", len(result_b),
         f"the paper's {len(expected)} authors"],
        ["(c) pivot the column", len(result_c), "all authors, groupable"],
    ]
    report(banner("Figure 2: three routes to explore a paper's authors"))
    report(format_table(["route", "result rows", "content"], rows))

    assert names_a <= expected
    assert names_b == expected
    assert expected <= names_c
    save_result(
        "figure2",
        {"authors": sorted(expected), "route_rows": [len(result_a),
                                                     len(result_b),
                                                     len(result_c)]},
    )


def test_figure3_relational_schema(benchmark):
    db, gen_report = benchmark.pedantic(
        generate_academic, args=(AcademicConfig(papers=1200, seed=7),),
        rounds=3, iterations=1,
    )

    rows = []
    total_fks = 0
    for name in db.table_names:
        table_schema = db.table(name).schema
        total_fks += len(table_schema.foreign_keys)
        rows.append([
            name,
            ", ".join(table_schema.column_names),
            ", ".join(table_schema.primary_key),
            len(table_schema.foreign_keys),
        ])
    report(banner("Figure 3: the relational schema (7 relations, 7 FKs)"))
    report(format_table(["relation", "columns", "primary key", "#FKs"], rows))

    assert len(db.table_names) == 7
    assert total_fks == 7
    assert db.validate_integrity() == []
    save_result(
        "figure3",
        {"relations": db.table_names, "foreign_keys": total_fks,
         "rows": gen_report.counts},
    )
