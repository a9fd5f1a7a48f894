"""Unit tests for ETable pattern → SQL translation (Section 8)."""

import pytest

from repro.errors import TranslationError
from repro.tgm.conditions import (
    AttributeCompare,
    AttributeLike,
    NeighborSatisfies,
    NodeIs,
    OrCondition,
)
from repro.core.operators import add, initiate, select, shift
from repro.core.sql_translation import pattern_to_sql


class TestGeneralPattern:
    def test_single_node_shape(self, toy, toy_sql):
        pattern = initiate(toy.schema, "Papers")
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping)
        assert "GROUP BY" in translation.sql
        assert "etable_key" in translation.sql
        result = toy_sql.execute(translation.sql)
        assert len(result.rows) == 7

    def test_ent_list_per_participating_node(self, toy):
        pattern = initiate(toy.schema, "Conferences")
        pattern = add(pattern, toy.schema, "Conferences->Papers")
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping)
        assert translation.sql.count("ENT_LIST") == 1
        assert list(translation.participating_aliases) == ["Conferences"]

    def test_fk_join_condition(self, toy):
        pattern = initiate(toy.schema, "Conferences")
        pattern = add(pattern, toy.schema, "Conferences->Papers")
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping)
        assert any(
            "conference_id" in condition for condition in translation.conditions
        )

    def test_mn_join_uses_junction(self, toy):
        pattern = initiate(toy.schema, "Papers")
        pattern = add(pattern, toy.schema, "Papers->Authors")
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping)
        tables = [table for table, _ in translation.from_items]
        assert "Paper_Authors" in tables

    def test_mv_join_uses_attr_table(self, toy):
        pattern = initiate(toy.schema, "Papers")
        pattern = add(pattern, toy.schema, "Papers->Paper_Keywords")
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping)
        tables = [table for table, _ in translation.from_items]
        assert "Paper_Keywords" in tables

    def test_categorical_binds_to_owner_column(self, toy):
        pattern = initiate(toy.schema, "Papers")
        pattern = add(pattern, toy.schema, "Papers->Papers: year")
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping)
        # No extra table for the categorical node.
        tables = [table for table, _ in translation.from_items]
        assert tables.count("Papers") == 1

    def test_self_join_two_aliases(self, toy):
        pattern = initiate(toy.schema, "Papers")
        pattern = add(pattern, toy.schema, "Papers->Papers (referenced)")
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping)
        tables = [table for table, _ in translation.from_items]
        assert tables.count("Papers") == 2

    def test_categorical_primary(self, toy, toy_db, toy_sql):
        # Initiate on a categorical node type, then add its entities.
        pattern = initiate(toy.schema, "Papers: year")
        pattern = add(pattern, toy.schema, "Papers: year->Papers")
        pattern = shift(pattern, "Papers: year")
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping)
        result = toy_sql.execute(translation.sql)
        # One row per distinct publication year.
        assert len(result.rows) == len(
            toy_db.table("Papers").distinct_values("year")
        )


class TestConditions:
    def test_attribute_conditions_rendered(self, toy):
        pattern = initiate(toy.schema, "Papers")
        pattern = select(pattern, AttributeCompare("year", ">", 2005))
        pattern = select(pattern, AttributeLike("title", "%join%"))
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping)
        assert any("year > 2005" in c for c in translation.conditions)
        assert any("LIKE '%join%'" in c for c in translation.conditions)

    def test_or_condition(self, toy, toy_sql):
        pattern = initiate(toy.schema, "Papers")
        pattern = select(
            pattern,
            OrCondition((
                AttributeCompare("year", "=", 2003),
                AttributeCompare("year", "=", 2006),
            )),
        )
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping)
        result = toy_sql.execute(translation.sql)
        assert len(result.rows) == 2

    def test_node_is_needs_graph(self, toy):
        pattern = initiate(toy.schema, "Papers")
        pattern = select(pattern, NodeIs(1))
        with pytest.raises(TranslationError):
            pattern_to_sql(pattern, toy.schema, toy.mapping, graph=None)

    def test_node_is_uses_source_key(self, toy, toy_sql):
        paper = toy.graph.find_by_label(
            "Papers", "Enriched tables for entity browsing"
        )
        pattern = initiate(toy.schema, "Papers")
        pattern = select(pattern, NodeIs(paper.node_id))
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping, toy.graph)
        result = toy_sql.execute(translation.sql)
        assert len(result.rows) == 1

    def test_string_literal_escaped(self, toy):
        pattern = initiate(toy.schema, "Papers")
        pattern = select(pattern, AttributeCompare("title", "=", "O'Hara"))
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping)
        assert "'O''Hara'" in translation.sql

    def test_neighbor_filter_becomes_exists(self, toy, toy_sql):
        pattern = initiate(toy.schema, "Papers")
        pattern = select(
            pattern,
            NeighborSatisfies(
                "Papers->Authors", AttributeCompare("name", "=", "Bob")
            ),
        )
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping, toy.graph)
        assert "EXISTS" in translation.sql
        result = toy_sql.execute(translation.sql)
        keys = {row[0] for row in result.rows}
        assert keys == {1, 4, 5, 8}

    def test_mv_neighbor_filter_exists(self, toy, toy_sql):
        pattern = initiate(toy.schema, "Papers")
        pattern = select(
            pattern,
            NeighborSatisfies(
                "Papers->Paper_Keywords",
                AttributeLike("keyword", "%user%"),
            ),
        )
        translation = pattern_to_sql(pattern, toy.schema, toy.mapping, toy.graph)
        result = toy_sql.execute(translation.sql)
        keys = {row[0] for row in result.rows}
        assert keys == {1, 4}
