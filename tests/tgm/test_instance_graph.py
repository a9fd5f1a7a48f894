"""Unit tests for the TGDB instance graph."""

import pytest

from repro.errors import GraphIntegrityError, TgmError, UnknownNodeType
from repro.tgm.conditions import AttributeCompare, AttributeLike
from repro.tgm.instance_graph import InstanceGraph
from repro.tgm.schema_graph import (
    EdgeTypeCategory,
    NodeType,
    SchemaGraph,
)
from repro.core.planner import candidate_ids


@pytest.fixture
def schema() -> SchemaGraph:
    graph = SchemaGraph("test")
    graph.add_node_type(NodeType("Papers", ("id", "title", "year"), "title"))
    graph.add_node_type(NodeType("Authors", ("id", "name"), "name"))
    graph.add_edge_type_pair(
        "Papers->Authors", "Authors->Papers",
        source="Papers", target="Authors",
        category=EdgeTypeCategory.MANY_TO_MANY,
    )
    return graph


@pytest.fixture
def graph(schema) -> InstanceGraph:
    instance = InstanceGraph(schema)
    paper = instance.add_node(
        "Papers", {"id": 1, "title": "ETable", "year": 2016}, source_key=1
    )
    author_a = instance.add_node("Authors", {"id": 10, "name": "Kahng"},
                                 source_key=10)
    author_b = instance.add_node("Authors", {"id": 11, "name": "Chau"},
                                 source_key=11)
    instance.add_edge("Papers->Authors", paper.node_id, author_a.node_id)
    instance.add_edge("Papers->Authors", paper.node_id, author_b.node_id)
    return instance


class TestNodes:
    def test_ids_sequential(self, graph):
        assert [node.node_id for node in graph.nodes_of_type("Papers")] == [1]
        assert graph.node_count == 3

    def test_label(self, graph, schema):
        assert graph.node(1).label(schema) == "ETable"

    def test_undeclared_attribute_rejected(self, graph):
        with pytest.raises(GraphIntegrityError):
            graph.add_node("Papers", {"id": 2, "venue": "VLDB"})

    def test_unknown_type_rejected(self, graph):
        with pytest.raises(UnknownNodeType):
            graph.add_node("Missing", {})

    def test_duplicate_source_key_rejected(self, graph):
        with pytest.raises(GraphIntegrityError):
            graph.add_node("Papers", {"id": 9}, source_key=1)

    def test_node_by_source_key(self, graph):
        assert graph.node_by_source_key("Authors", 11).attributes["name"] == "Chau"

    def test_node_by_source_key_missing(self, graph):
        with pytest.raises(TgmError):
            graph.node_by_source_key("Authors", 999)

    def test_unknown_node_id(self, graph):
        with pytest.raises(TgmError):
            graph.node(99)

    def test_has_node(self, graph):
        assert graph.has_node(1) and not graph.has_node(42)

    def test_find_by_label(self, graph):
        node = graph.find_by_label("Authors", "Kahng")
        assert node is not None and node.attributes["id"] == 10
        assert graph.find_by_label("Authors", "Nobody") is None

    def test_find_nodes_with_condition(self, graph):
        found = graph.find_nodes("Authors", AttributeCompare("name", "=", "Chau"))
        assert len(found) == 1

    def test_type_counts(self, graph):
        assert graph.type_counts() == {"Papers": 1, "Authors": 2}


class TestEdges:
    def test_forward_adjacency(self, graph):
        names = [n.attributes["name"]
                 for n in graph.neighbors(1, "Papers->Authors")]
        assert names == ["Kahng", "Chau"]

    def test_reverse_adjacency_automatic(self, graph):
        titles = [n.attributes["title"]
                  for n in graph.neighbors(2, "Authors->Papers")]
        assert titles == ["ETable"]

    def test_degree(self, graph):
        assert graph.degree(1, "Papers->Authors") == 2
        assert graph.degree(3, "Papers->Authors") == 0

    def test_edge_count_counts_forward_only(self, graph):
        assert graph.edge_count == 2

    def test_source_type_checked(self, graph):
        with pytest.raises(GraphIntegrityError):
            graph.add_edge("Papers->Authors", 2, 3)  # author as source

    def test_target_type_checked(self, graph, schema):
        paper2 = graph.add_node("Papers", {"id": 2, "title": "x", "year": 2000})
        with pytest.raises(GraphIntegrityError):
            graph.add_edge("Papers->Authors", 1, paper2.node_id)

    def test_edge_attributes_stored(self, graph):
        author = graph.add_node("Authors", {"id": 12, "name": "Navathe"})
        edge = graph.add_edge(
            "Papers->Authors", 1, author.node_id, {"author_position": 3}
        )
        assert dict(edge.attributes) == {"author_position": 3}

    def test_unknown_edge_type(self, graph):
        with pytest.raises(Exception):
            graph.neighbors(1, "nope")

    def test_to_ascii(self, graph):
        text = graph.to_ascii()
        assert "Papers (1)" in text and "edges: 2" in text


class TestReadOnlyOnceQueried:
    """Nothing derived from a graph can go stale: once it has built an
    attribute index or its statistics, it refuses every write."""

    @pytest.mark.parametrize("query", [
        lambda graph: graph.statistics(),
        lambda graph: graph.find_by_label("Authors", "Kahng"),
    ], ids=["statistics", "find_by_label"])
    def test_writes_raise_once_queried(self, graph, query):
        query(graph)
        with pytest.raises(GraphIntegrityError, match="read-only"):
            graph.add_node("Authors", {"id": 12, "name": "Navathe"})
        with pytest.raises(GraphIntegrityError, match="read-only"):
            graph.add_edge("Papers->Authors", 1, 2)
        assert graph.type_counts() == {"Papers": 1, "Authors": 2}
        assert graph.edge_count == 2

    def test_writes_raise_after_a_prefiltered_like(self, graph):
        ids = candidate_ids(graph, "Authors", AttributeLike("name", "%ahn%"))
        assert [graph.node(i).attributes["name"] for i in ids] == ["Kahng"]
        with pytest.raises(GraphIntegrityError, match="read-only"):
            graph.add_node("Authors", {"id": 12, "name": "Navathe"})

    def test_lookups_that_derive_nothing_leave_it_writable(self, graph):
        graph.neighbors(1, "Papers->Authors")
        graph.find_nodes("Authors", AttributeCompare("name", "=", "Chau"))
        graph.find_by_label("Authors", None)  # NULL probes scan
        labels = [graph.label_of(node_id) for node_id in (1, 2, 3)]
        for unknown in (0, -1, 10**9):
            with pytest.raises(TgmError):
                graph.label_of(unknown)
        added = graph.add_node("Authors", {"id": 12, "name": "Navathe"})
        graph.add_edge("Papers->Authors", 1, added.node_id)
        assert graph.find_by_label("Authors", "Navathe") == added
        assert labels == ["ETable", "Kahng", "Chau"]
        assert graph.label_of(added.node_id) == "Navathe"
