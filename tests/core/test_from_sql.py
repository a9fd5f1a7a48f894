"""Unit tests for SQL → ETable translation (Section 8 expressiveness)."""

import pytest

from repro.errors import TranslationError
from repro.core.from_sql import sql_to_pattern
from repro.core.sql_execution import (
    execute_monolithic,
    graph_result_summary,
    results_equal,
)
from repro.core.transform import execute_pattern


class TestBasicTranslation:
    def test_single_table(self, toy, toy_db):
        pattern = sql_to_pattern(
            "SELECT p.title FROM Papers p WHERE p.year > 2005 GROUP BY p.id",
            toy_db, toy.schema, toy.mapping,
        )
        assert pattern.primary.type_name == "Papers"
        etable = execute_pattern(pattern, toy.graph)
        assert len(etable) == 6

    def test_fk_join(self, toy, toy_db):
        pattern = sql_to_pattern(
            "SELECT c.acronym FROM Papers p, Conferences c "
            "WHERE p.conference_id = c.id GROUP BY c.id",
            toy_db, toy.schema, toy.mapping,
        )
        assert pattern.primary.type_name == "Conferences"
        assert len(pattern.edges) == 1

    def test_junction_join(self, toy, toy_db):
        pattern = sql_to_pattern(
            "SELECT a.name FROM Papers p, Paper_Authors pa, Authors a "
            "WHERE pa.paper_id = p.id AND pa.author_id = a.id GROUP BY a.id",
            toy_db, toy.schema, toy.mapping,
        )
        assert pattern.primary.type_name == "Authors"
        edge_types = [edge.edge_type for edge in pattern.edges]
        assert edge_types == ["Papers->Authors"]

    def test_multivalued_join(self, toy, toy_db):
        pattern = sql_to_pattern(
            "SELECT k.keyword FROM Papers p, Paper_Keywords k "
            "WHERE k.paper_id = p.id AND k.keyword LIKE '%user%' GROUP BY p.id",
            toy_db, toy.schema, toy.mapping,
        )
        keyword_nodes = [
            node for node in pattern.nodes
            if node.type_name == "Paper_Keywords: keyword"
        ]
        assert len(keyword_nodes) == 1
        assert len(keyword_nodes[0].conditions) == 1

    def test_group_by_picks_primary(self, toy, toy_db):
        pattern = sql_to_pattern(
            "SELECT a.name FROM Papers p, Paper_Authors pa, Authors a "
            "WHERE pa.paper_id = p.id AND pa.author_id = a.id GROUP BY p.id",
            toy_db, toy.schema, toy.mapping,
        )
        assert pattern.primary.type_name == "Papers"

    def test_no_group_by_defaults_to_first_table(self, toy, toy_db):
        pattern = sql_to_pattern(
            "SELECT p.title FROM Papers p WHERE p.year = 2006",
            toy_db, toy.schema, toy.mapping,
        )
        assert pattern.primary.type_name == "Papers"

    def test_aliases_become_pattern_keys(self, toy, toy_db):
        pattern = sql_to_pattern(
            "SELECT x.title FROM Papers x WHERE x.year > 2000",
            toy_db, toy.schema, toy.mapping,
        )
        assert pattern.primary_key == "x"


class TestRoundTrip:
    def test_full_round_trip_equivalence(self, toy, toy_db, toy_sql):
        """SQL → pattern → (graph execution == monolithic SQL execution)."""
        sql = (
            "SELECT a.name FROM Conferences c, Papers p, Paper_Authors pa, "
            "Authors a, Institutions i "
            "WHERE p.conference_id = c.id AND pa.paper_id = p.id "
            "AND pa.author_id = a.id AND a.institution_id = i.id "
            "AND c.acronym = 'SIGMOD' AND p.year > 2005 "
            "AND i.country LIKE '%Korea%' GROUP BY a.id"
        )
        pattern = sql_to_pattern(sql, toy_db, toy.schema, toy.mapping)
        graph = graph_result_summary(pattern, toy.graph)
        mono = execute_monolithic(
            toy_sql, pattern, toy.schema, toy.mapping, toy.graph
        )
        assert results_equal(graph, mono)
        names = {
            toy.graph.node_by_source_key("Authors", key).attributes["name"]
            for key in graph.primary_keys
        }
        assert names == {"Bob", "Mark", "Chad"}

    def test_or_conditions_translate(self, toy, toy_db):
        pattern = sql_to_pattern(
            "SELECT p.title FROM Papers p "
            "WHERE p.year = 2003 OR p.year = 2006",
            toy_db, toy.schema, toy.mapping,
        )
        etable = execute_pattern(pattern, toy.graph)
        assert len(etable) == 2


class TestRejections:
    def test_unknown_table(self, toy, toy_db):
        with pytest.raises(TranslationError):
            sql_to_pattern(
                "SELECT * FROM Mystery m WHERE m.x = 1",
                toy_db, toy.schema, toy.mapping,
            )

    def test_non_fk_equality(self, toy, toy_db):
        with pytest.raises(TranslationError):
            sql_to_pattern(
                "SELECT * FROM Papers p, Authors a WHERE p.year = a.id",
                toy_db, toy.schema, toy.mapping,
            )

    def test_unqualified_condition_column(self, toy, toy_db):
        with pytest.raises(TranslationError):
            sql_to_pattern(
                "SELECT * FROM Papers p WHERE year > 2000",
                toy_db, toy.schema, toy.mapping,
            )

    def test_junction_must_join_both_sides(self, toy, toy_db):
        with pytest.raises(TranslationError):
            sql_to_pattern(
                "SELECT * FROM Papers p, Paper_Authors pa "
                "WHERE pa.paper_id = p.id",
                toy_db, toy.schema, toy.mapping,
            )

    def test_cross_alias_or_rejected(self, toy, toy_db):
        with pytest.raises(TranslationError):
            sql_to_pattern(
                "SELECT * FROM Papers p, Conferences c "
                "WHERE p.conference_id = c.id "
                "AND (p.year = 2006 OR c.acronym = 'KDD')",
                toy_db, toy.schema, toy.mapping,
            )

    def test_column_vs_column_condition_rejected(self, toy, toy_db):
        with pytest.raises(TranslationError):
            sql_to_pattern(
                "SELECT * FROM Papers p WHERE p.page_start < p.page_end",
                toy_db, toy.schema, toy.mapping,
            )
