"""Unit tests for the four-table TGDB storage (Section 6.2)."""

import pytest

from repro.errors import GraphIntegrityError
from repro.tgm.storage import (
    EDGE_TYPES_TABLE,
    EDGES_TABLE,
    NODE_TYPES_TABLE,
    NODES_TABLE,
    load_graph,
    save_graph,
    storage_database,
)


class TestStorageLayout:
    def test_exactly_four_tables(self):
        db = storage_database()
        assert sorted(db.table_names) == sorted(
            [NODE_TYPES_TABLE, EDGE_TYPES_TABLE, NODES_TABLE, EDGES_TABLE]
        )

    def test_save_row_counts(self, toy):
        db = save_graph(toy.schema, toy.graph)
        assert len(db.table(NODE_TYPES_TABLE)) == len(toy.schema.node_types)
        assert len(db.table(EDGE_TYPES_TABLE)) == len(toy.schema.edge_types)
        assert len(db.table(NODES_TABLE)) == toy.graph.node_count
        assert len(db.table(EDGES_TABLE)) == toy.graph.edge_count

    def test_storage_db_is_consistent(self, toy):
        db = save_graph(toy.schema, toy.graph)
        assert db.validate_integrity() == []


class TestRoundTrip:
    def test_schema_round_trip(self, toy):
        db = save_graph(toy.schema, toy.graph)
        schema, _graph = load_graph(db)
        assert {t.name for t in schema.node_types} == {
            t.name for t in toy.schema.node_types
        }
        for edge in toy.schema.edge_types:
            loaded = schema.edge_type(edge.name)
            assert loaded.source == edge.source
            assert loaded.target == edge.target
            assert loaded.display_name == edge.display_name
            assert loaded.category == edge.category
            assert loaded.reverse_name == edge.reverse_name

    def test_instance_round_trip(self, toy):
        db = save_graph(toy.schema, toy.graph)
        _schema, graph = load_graph(db)
        assert graph.node_count == toy.graph.node_count
        assert graph.edge_count == toy.graph.edge_count
        # Node ids, attributes, and adjacency are preserved.
        for type_name in ("Papers", "Authors"):
            for original in toy.graph.nodes_of_type(type_name):
                loaded = graph.node(original.node_id)
                assert loaded.attributes == original.attributes
                assert loaded.source_key == original.source_key

    def test_adjacency_round_trip(self, toy):
        db = save_graph(toy.schema, toy.graph)
        _schema, graph = load_graph(db)
        bob = toy.graph.find_by_label("Authors", "Bob")
        loaded_bob = graph.node(bob.node_id)
        original = {n.node_id for n in toy.graph.neighbors(
            bob.node_id, "Authors->Papers")}
        loaded = {n.node_id for n in graph.neighbors(
            loaded_bob.node_id, "Authors->Papers")}
        assert original == loaded

    def test_labels_round_trip(self, toy):
        db = save_graph(toy.schema, toy.graph)
        schema, graph = load_graph(db)
        assert graph.find_by_label("Authors", "Chad") is not None


class TestStatisticsPersistence:
    """Statistics are not persisted: a loaded graph computes its own on
    first use, and is read-only from then on."""

    def test_loaded_graph_computes_its_own_statistics(self, toy):
        db = save_graph(toy.schema, toy.graph)
        assert sorted(db.table_names) == sorted(
            [NODE_TYPES_TABLE, EDGE_TYPES_TABLE, NODES_TABLE, EDGES_TABLE]
        )
        _schema, graph = load_graph(db)
        before = graph.statistics().cardinality("Papers")
        assert before == toy.graph.statistics().cardinality("Papers")
        with pytest.raises(GraphIntegrityError, match="read-only"):
            graph.add_node("Papers", {"title": "New", "year": 2016})
        assert graph.statistics().cardinality("Papers") == before
