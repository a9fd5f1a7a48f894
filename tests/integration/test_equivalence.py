"""Cross-engine equivalence: graph execution vs the SQL strategies.

These are the reproduction's strongest correctness checks: every task query
and a family of generated patterns must produce identical results through
(1) the pure typed-graph pipeline, (2) the monolithic Section 8 SQL over the
original relational schema, and (3) the partitioned Section 6.2 strategy,
both run on SQLite, on every dataset.
"""

import pytest

from repro.tgm.conditions import AttributeCompare, AttributeLike
from repro.core.from_sql import sql_to_pattern
from repro.core.operators import add, initiate, select, shift
from repro.core.sql_execution import (
    execute_monolithic,
    execute_partitioned,
    graph_result_summary,
    results_equal,
)
from repro.study.tasks import ground_truth_for, task_set_a, task_set_b

STRATEGIES = {
    "monolithic": execute_monolithic,
    "partitioned": execute_partitioned,
}


def _patterns(tgdb):
    """A representative family of patterns over the academic schema."""
    schema = tgdb.schema
    out = []

    pattern = initiate(schema, "Conferences")
    out.append(("all conferences", pattern))

    pattern = initiate(schema, "Papers")
    pattern = select(pattern, AttributeCompare("year", ">=", 2010))
    out.append(("recent papers", pattern))

    pattern = initiate(schema, "Conferences")
    pattern = select(pattern, AttributeCompare("acronym", "=", "KDD"))
    pattern = add(pattern, schema, "Conferences->Papers")
    out.append(("kdd papers with conf column", pattern))

    pattern = initiate(schema, "Papers")
    pattern = add(pattern, schema, "Papers->Authors")
    pattern = add(pattern, schema, "Authors->Institutions")
    pattern = select(pattern, AttributeLike("country", "%Korea%"))
    pattern = shift(pattern, "Papers")
    out.append(("papers w/ korean coauthors", pattern))

    pattern = initiate(schema, "Papers")
    pattern = add(pattern, schema, "Papers->Paper_Keywords")
    pattern = select(pattern, AttributeLike("keyword", "%data%"))
    pattern = shift(pattern, "Papers")
    out.append(("papers by keyword", pattern))

    pattern = initiate(schema, "Papers")
    pattern = add(pattern, schema, "Papers->Papers (referenced)")
    pattern = select(pattern, AttributeCompare("year", "<", 2005))
    pattern = shift(pattern, "Papers")
    out.append(("papers citing old papers", pattern))

    pattern = initiate(schema, "Authors")
    pattern = add(pattern, schema, "Authors->Papers")
    pattern = add(pattern, schema, "Papers->Papers: year")
    pattern = select(pattern, AttributeCompare("year", "=", 2012))
    pattern = shift(pattern, "Authors")
    out.append(("authors via categorical year", pattern))

    return out


def _movie_patterns(tgdb):
    """A representative family of patterns over the movies schema."""
    schema = tgdb.schema
    out = []

    pattern = initiate(schema, "Studios")
    out.append(("all studios", pattern))

    pattern = initiate(schema, "Movies")
    pattern = add(pattern, schema, "Movies->People #2")  # cast (M:N)
    pattern = shift(pattern, "Movies")
    out.append(("movies with cast column", pattern))

    pattern = initiate(schema, "Movies")
    pattern = add(pattern, schema, "Movies->Movie_Genres")  # multivalued
    pattern = select(pattern, AttributeLike("genre", "%drama%"))
    pattern = shift(pattern, "Movies")
    out.append(("dramas", pattern))

    pattern = initiate(schema, "People")
    pattern = add(pattern, schema, "People->Movies")  # directed (FK reverse)
    pattern = add(pattern, schema, "Movies->Studios")
    pattern = select(pattern, AttributeLike("country", "%USA%"))
    pattern = shift(pattern, "People")
    out.append(("directors at US studios", pattern))

    pattern = initiate(schema, "Movies")
    pattern = add(pattern, schema, "Movies->Movies: decade")  # categorical
    pattern = shift(pattern, "Movies")
    out.append(("movies with decade column", pattern))

    return out


# Toy reuses the academic schema, so its pattern family is the same.
_PATTERN_FAMILIES = {
    "academic": _patterns,
    "movies": _movie_patterns,
    "toy": _patterns,
}


class TestThreeWayEquivalence:
    """Graph == monolithic == partitioned, one test per academic pattern."""

    @pytest.mark.parametrize("name_index", range(7))
    def test_pattern_family(self, academic, academic_sql, name_index):
        name, pattern = _patterns(academic)[name_index]
        graph = graph_result_summary(pattern, academic.graph)
        mono = execute_monolithic(
            academic_sql, pattern, academic.schema, academic.mapping,
            academic.graph,
        )
        assert results_equal(graph, mono), f"monolithic mismatch: {name}"
        part = execute_partitioned(
            academic_sql, pattern, academic.schema, academic.mapping,
            academic.graph,
        )
        assert results_equal(graph, part), f"partitioned mismatch: {name}"


class TestStrategyMatrix:
    """Graph execution == every strategy, on every dataset."""

    @pytest.mark.parametrize("dataset", sorted(_PATTERN_FAMILIES))
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_matrix(self, request, dataset, strategy):
        tgdb = request.getfixturevalue(dataset)
        engine = request.getfixturevalue(f"{dataset}_sql")
        execute = STRATEGIES[strategy]
        for name, pattern in _PATTERN_FAMILIES[dataset](tgdb):
            graph = graph_result_summary(pattern, tgdb.graph)
            result = execute(
                engine, pattern, tgdb.schema, tgdb.mapping, tgdb.graph
            )
            assert results_equal(graph, result), (
                f"{dataset}/{strategy} mismatch: {name}"
            )


class TestTasksEndToEnd:
    """Every Table 2 task: ETable script answer == ground-truth SQL answer ==
    translated-query answer."""

    @pytest.mark.parametrize("task_index", range(6))
    @pytest.mark.parametrize("set_name", ["A", "B"])
    def test_task(self, academic, academic_sql, task_index, set_name):
        tasks = task_set_a() if set_name == "A" else task_set_b()
        task = tasks[task_index]
        truth = ground_truth_for(academic_sql, task)
        from repro.core.session import EtableSession

        session = EtableSession(academic.schema, academic.graph)
        answer, _ = task.etable_script(session)
        assert answer == truth


class TestFromSqlRoundTrip:
    def test_task4_sql_translates_and_matches(self, academic, academic_db,
                                              academic_sql):
        task = task_set_a()[3]
        # The ground-truth SQL (minus DISTINCT/top-level projection quirks)
        # in the general FK-PK join form:
        sql = (
            "SELECT p.title FROM Papers p, Paper_Authors pa, Authors a, "
            "Institutions i, Conferences c "
            "WHERE pa.paper_id = p.id AND pa.author_id = a.id "
            "AND a.institution_id = i.id AND p.conference_id = c.id "
            "AND i.name = 'Carnegie Mellon University' "
            "AND c.acronym = 'KDD' GROUP BY p.id"
        )
        pattern = sql_to_pattern(sql, academic_db, academic.schema,
                                 academic.mapping)
        graph = graph_result_summary(pattern, academic.graph)
        titles = {
            academic.graph.node_by_source_key("Papers", key).attributes["title"]
            for key in graph.primary_keys
        }
        assert titles == ground_truth_for(academic_sql, task)
