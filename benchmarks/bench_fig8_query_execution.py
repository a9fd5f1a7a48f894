"""Figure 8 — the two-step query execution on the figure's own instances.

Runs instance matching and format transformation separately on the toy
database that replicates Figure 8's ids, prints the intermediate graph
relation and the final enriched table (matching the figure's contents), and
benchmarks both steps.
"""

from repro.bench import banner, format_table, report, save_result
from repro.core.matching import match
from repro.core.operators import add, initiate, select, shift
from repro.core.transform import transform
from repro.datasets.toy import FIGURE8_EXPECTED
from repro.tgm.conditions import AttributeCompare, AttributeLike


def _figure8_pattern(tgdb):
    schema = tgdb.schema
    pattern = initiate(schema, "Conferences")
    pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))
    pattern = add(pattern, schema, "Conferences->Papers")
    pattern = select(pattern, AttributeCompare("year", ">", 2005))
    pattern = add(pattern, schema, "Papers->Authors")
    pattern = add(pattern, schema, "Authors->Institutions")
    pattern = select(pattern, AttributeLike("country", "%Korea%"))
    return shift(pattern, "Authors")


def _execute_both_steps(pattern, graph):
    matched = match(pattern, graph)
    etable = transform(pattern, matched, graph)
    return matched, etable


def test_figure8_query_execution(toy_tgdb, benchmark):
    pattern = _figure8_pattern(toy_tgdb)
    matched, etable = benchmark(_execute_both_steps, pattern, toy_tgdb.graph)

    # Step 1: instance matching — the intermediate graph relation.
    report(banner("Figure 8, step 1: instance matching (graph relation)"))
    rows = []
    for row in matched.tuples:
        ids = {
            attribute.key: toy_tgdb.graph.node(node_id).attributes.get("id")
            for attribute, node_id in zip(matched.attributes, row)
        }
        rows.append([ids.get("Conferences"), ids.get("Papers"),
                     ids.get("Authors"), ids.get("Institutions")])
    report(format_table(["Conf", "Paper", "Autho", "Insti"], rows))

    # Step 2: format transformation — the final ETable.
    report(banner("Figure 8, step 2: format transformation (final ETable)"))
    final_rows = []
    for row in etable.rows:
        papers = sorted(
            toy_tgdb.graph.node(ref.node_id).attributes["id"]
            for ref in etable.refs(row, "Papers")
        )
        confs = [str(ref.label) for ref in etable.refs(row, "Conferences")]
        final_rows.append([
            row.attributes["id"], row.attributes["name"],
            row.attributes["institution_id"],
            ",".join(map(str, papers)), ",".join(confs),
        ])
    report(format_table(["id", "name", "Insti", "Papers", "Conf"], final_rows))

    # Figure 8's expected content.
    result = {
        row.attributes["name"]: {
            toy_tgdb.graph.node(ref.node_id).attributes["id"]
            for ref in etable.refs(row, "Papers")
        }
        for row in etable.rows
    }
    assert result == FIGURE8_EXPECTED
    assert len(matched) == 7  # the figure's intermediate relation size
    save_result(
        "figure8",
        {"matched_tuples": len(matched),
         "final_rows": {name: sorted(papers) for name, papers in result.items()}},
    )
