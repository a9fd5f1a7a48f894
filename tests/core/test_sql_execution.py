"""Unit tests for the monolithic vs partitioned execution strategies."""

import pytest

from repro.tgm.conditions import (
    AttributeCompare,
    AttributeLike,
    NeighborSatisfies,
)
from repro.core.operators import add, initiate, select, shift
from repro.core.sql_execution import (
    build_partitioned_queries,
    execute_monolithic,
    execute_partitioned,
    graph_result_summary,
    results_equal,
)
from repro.core.transform import execute_pattern


def korea_pattern(tgdb):
    schema = tgdb.schema
    pattern = initiate(schema, "Conferences")
    pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))
    pattern = add(pattern, schema, "Conferences->Papers")
    pattern = select(pattern, AttributeCompare("year", ">", 2005))
    pattern = add(pattern, schema, "Papers->Authors")
    pattern = add(pattern, schema, "Authors->Institutions")
    pattern = select(pattern, AttributeLike("country", "%Korea%"))
    return shift(pattern, "Authors")


class TestStrategies:
    def test_monolithic_matches_graph(self, toy, toy_sql):
        pattern = korea_pattern(toy)
        mono = execute_monolithic(
            toy_sql, pattern, toy.schema, toy.mapping, toy.graph
        )
        graph = graph_result_summary(pattern, toy.graph)
        assert results_equal(mono, graph)

    def test_partitioned_matches_graph(self, toy, toy_sql):
        pattern = korea_pattern(toy)
        part = execute_partitioned(
            toy_sql, pattern, toy.schema, toy.mapping, toy.graph
        )
        graph = graph_result_summary(pattern, toy.graph)
        assert results_equal(part, graph)

    def test_partitioned_query_count(self, toy):
        pattern = korea_pattern(toy)
        queries = build_partitioned_queries(
            pattern, toy.schema, toy.mapping, toy.graph
        )
        # One row query + one per participating column.
        assert len(queries.column_sql) == 3

    def test_partitioned_column_queries_join_fewer_tables(self, toy):
        pattern = korea_pattern(toy)
        queries = build_partitioned_queries(
            pattern, toy.schema, toy.mapping, toy.graph
        )
        # The Institutions column query only needs Authors + Institutions in
        # its FROM; the conference branch becomes an EXISTS semijoin.
        institutions_sql = queries.column_sql["Institutions"]
        from_clause = institutions_sql.split("WHERE")[0]
        assert "Conferences" not in from_clause
        assert "EXISTS" in institutions_sql

    def test_semijoin_preserves_deep_constraints(self, toy, toy_sql):
        # Primary = Papers with the Korea constraint hanging two hops away:
        # partitioned per-column query for Authors must NOT include authors
        # from non-Korean institutions.
        schema = toy.schema
        pattern = initiate(schema, "Papers")
        pattern = add(pattern, schema, "Papers->Authors")
        pattern = add(pattern, schema, "Authors->Institutions")
        pattern = select(pattern, AttributeLike("country", "%Korea%"))
        pattern = shift(pattern, "Papers")
        part = execute_partitioned(
            toy_sql, pattern, toy.schema, toy.mapping, toy.graph
        )
        graph = graph_result_summary(pattern, toy.graph)
        assert results_equal(part, graph)
        # Paper 4's author cell: Bob, Mark, Chad are all Korean; but for
        # paper 1 only Bob (not Ann of Michigan) may appear.
        assert part.cells[1]["Authors"] == frozenset({1})

    def test_queries_recorded(self, toy, toy_sql):
        pattern = korea_pattern(toy)
        mono = execute_monolithic(
            toy_sql, pattern, toy.schema, toy.mapping, toy.graph
        )
        part = execute_partitioned(
            toy_sql, pattern, toy.schema, toy.mapping, toy.graph
        )
        assert len(mono.queries) == 1
        assert len(part.queries) == 4

    def test_single_node_pattern(self, toy, toy_sql):
        pattern = initiate(toy.schema, "Conferences")
        part = execute_partitioned(
            toy_sql, pattern, toy.schema, toy.mapping, toy.graph
        )
        graph = graph_result_summary(pattern, toy.graph)
        assert results_equal(part, graph)

    def test_mv_value_node_mid_path_regression(self, toy, toy_sql):
        """Regression (hypothesis-found): keyword node between two Papers
        occurrences. The EXISTS subtree rooted at the keyword node must not
        reuse its attribute-table row for both the internal join and the
        correlation — that forced both papers to coincide and dropped refs.
        """
        from repro.tgm.conditions import AttributeLike as Like
        from repro.core.query_pattern import PatternEdge, PatternNode, QueryPattern

        pattern = QueryPattern(
            primary_key="Conferences",
            nodes=(
                PatternNode("Papers", "Papers",
                            (Like("title", "%data%"),)),
                PatternNode("Paper_Keywords: keyword",
                            "Paper_Keywords: keyword"),
                PatternNode("Papers#2", "Papers"),
                PatternNode("Conferences", "Conferences"),
            ),
            edges=(
                PatternEdge("Papers->Paper_Keywords", "Papers",
                            "Paper_Keywords: keyword"),
                PatternEdge("Paper_Keywords: keyword->Papers",
                            "Paper_Keywords: keyword", "Papers#2"),
                PatternEdge("Papers->Conferences", "Papers#2", "Conferences"),
            ),
        )
        graph = graph_result_summary(pattern, toy.graph)
        part = execute_partitioned(
            toy_sql, pattern, toy.schema, toy.mapping, toy.graph
        )
        mono = execute_monolithic(
            toy_sql, pattern, toy.schema, toy.mapping, toy.graph
        )
        assert results_equal(graph, mono)
        assert results_equal(graph, part)

    def test_equivalence_on_academic_data(self, academic, academic_sql):
        schema = academic.schema
        pattern = initiate(schema, "Conferences")
        pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))
        pattern = add(pattern, schema, "Conferences->Papers")
        pattern = add(pattern, schema, "Papers->Paper_Keywords")
        pattern = shift(pattern, "Papers")
        mono = execute_monolithic(
            academic_sql, pattern, schema, academic.mapping, academic.graph
        )
        part = execute_partitioned(
            academic_sql, pattern, schema, academic.mapping, academic.graph
        )
        graph = graph_result_summary(pattern, academic.graph)
        assert results_equal(mono, graph)
        assert results_equal(part, graph)


# Edges from an attribute value (categorical or multivalued) back to the
# entities that hold it: their neighbor filters correlate the EXISTS
# subquery the other way round from the forward edges.
_REVERSE_ATTRIBUTE_FILTERS = {
    "Institutions: country->Institutions": AttributeLike("name", "%a%"),
    "Papers: year->Papers": AttributeLike("title", "%a%"),
    "Paper_Keywords: keyword->Papers": AttributeCompare("year", ">", 2005),
}


@pytest.mark.parametrize("dataset", ["toy", "academic"])
@pytest.mark.parametrize("edge_type", sorted(_REVERSE_ATTRIBUTE_FILTERS))
def test_neighbor_filter_over_reverse_attribute_edge(request, dataset,
                                                     edge_type):
    tgdb = request.getfixturevalue(dataset)
    engine = request.getfixturevalue(f"{dataset}_sql")
    pattern = initiate(tgdb.schema, tgdb.schema.edge_type(edge_type).source)
    pattern = select(pattern, NeighborSatisfies(
        edge_type, _REVERSE_ATTRIBUTE_FILTERS[edge_type]))
    naive = graph_result_summary(
        execute_pattern(pattern, tgdb.graph, engine="naive"))
    assert naive.primary_keys
    for execute in (execute_monolithic, execute_partitioned):
        result = execute(engine, pattern, tgdb.schema, tgdb.mapping,
                         tgdb.graph)
        assert results_equal(result, naive), execute.__name__
