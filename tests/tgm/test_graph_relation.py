"""Unit tests for the graph relation algebra (Section 5.4.1)."""

import random

import pytest

from repro.errors import TgmError
from repro.tgm.conditions import AttributeCompare
from repro.tgm.graph_relation import (
    GraphAttribute,
    GraphRelation,
    base_relation,
    join,
    projection,
    selection,
)
from repro.tgm.instance_graph import InstanceGraph
from repro.tgm.schema_graph import EdgeTypeCategory, NodeType, SchemaGraph


@pytest.fixture
def graph() -> InstanceGraph:
    schema = SchemaGraph()
    schema.add_node_type(NodeType("Confs", ("id", "acronym"), "acronym"))
    schema.add_node_type(NodeType("Papers", ("id", "title", "year"), "title"))
    schema.add_edge_type_pair(
        "Confs->Papers", "Papers->Confs",
        source="Confs", target="Papers",
        category=EdgeTypeCategory.ONE_TO_MANY,
    )
    instance = InstanceGraph(schema)
    sigmod = instance.add_node("Confs", {"id": 1, "acronym": "SIGMOD"})
    kdd = instance.add_node("Confs", {"id": 2, "acronym": "KDD"})
    for pid, conf, year in ((1, sigmod, 2006), (2, sigmod, 2012), (3, kdd, 2012)):
        node = instance.add_node(
            "Papers", {"id": pid, "title": f"p{pid}", "year": year}
        )
        instance.add_edge("Confs->Papers", conf.node_id, node.node_id)
    return instance


class TestBaseAndSelection:
    def test_base_relation(self, graph):
        base = base_relation(graph, "Papers")
        assert base.keys == ["Papers"]
        assert len(base) == 3

    def test_base_relation_custom_key(self, graph):
        base = base_relation(graph, "Papers", key="P2")
        assert base.attributes[0] == GraphAttribute("P2", "Papers")

    def test_selection(self, graph):
        base = base_relation(graph, "Papers")
        kept = selection(base, "Papers", AttributeCompare("year", "=", 2012), graph)
        assert len(kept) == 2

    def test_selection_unknown_key(self, graph):
        base = base_relation(graph, "Papers")
        with pytest.raises(TgmError):
            selection(base, "Nope", AttributeCompare("year", "=", 2012), graph)


class TestJoin:
    def test_join_follows_edges(self, graph):
        confs = base_relation(graph, "Confs")
        papers = base_relation(graph, "Papers")
        joined = join(confs, papers, "Confs->Papers", "Confs", "Papers", graph)
        assert len(joined) == 3
        assert joined.keys == ["Confs", "Papers"]

    def test_join_respects_selection(self, graph):
        confs = selection(
            base_relation(graph, "Confs"), "Confs",
            AttributeCompare("acronym", "=", "SIGMOD"), graph,
        )
        papers = base_relation(graph, "Papers")
        joined = join(confs, papers, "Confs->Papers", "Confs", "Papers", graph)
        assert len(joined) == 2

    def test_join_type_mismatch(self, graph):
        confs = base_relation(graph, "Confs")
        papers = base_relation(graph, "Papers")
        with pytest.raises(TgmError):
            join(papers, confs, "Confs->Papers", "Papers", "Confs", graph)

    def test_reverse_join(self, graph):
        papers = base_relation(graph, "Papers")
        confs = base_relation(graph, "Confs")
        joined = join(papers, confs, "Papers->Confs", "Papers", "Confs", graph)
        assert len(joined) == 3


class TestProjection:
    def test_projection_dedupes(self, graph):
        confs = base_relation(graph, "Confs")
        papers = base_relation(graph, "Papers")
        joined = join(confs, papers, "Confs->Papers", "Confs", "Papers", graph)
        projected = projection(joined, ["Confs"])
        assert len(projected) == 2

    def test_projection_keeps_order(self, graph):
        confs = base_relation(graph, "Confs")
        papers = base_relation(graph, "Papers")
        joined = join(confs, papers, "Confs->Papers", "Confs", "Papers", graph)
        projected = projection(joined, ["Papers", "Confs"])
        assert projected.keys == ["Papers", "Confs"]

    def test_distinct_column(self, graph):
        confs = base_relation(graph, "Confs")
        papers = base_relation(graph, "Papers")
        joined = join(confs, papers, "Confs->Papers", "Confs", "Papers", graph)
        assert len(joined.distinct_column("Confs")) == 2


class TestStructure:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(TgmError):
            GraphRelation(
                [GraphAttribute("A", "T"), GraphAttribute("A", "T")], []
            )
        # Distinct types do not make a repeated key legal.
        with pytest.raises(TgmError):
            GraphRelation(
                [GraphAttribute("A", "T"), GraphAttribute("A", "U")], [(1, 2)]
            )

    def test_arity_checked(self):
        with pytest.raises(TgmError):
            GraphRelation([GraphAttribute("A", "T")], [(1, 2)])

    def test_to_table_labels(self, graph):
        confs = base_relation(graph, "Confs")
        table = confs.to_table(graph)
        assert table[0] == {"Confs": "SIGMOD"}

    def test_column_accessor(self, graph):
        confs = base_relation(graph, "Confs")
        assert confs.column("Confs") == [1, 2]


def _random_relation(rng: random.Random, arity: int, rows: int) -> GraphRelation:
    attributes = [GraphAttribute(f"K{i}", f"T{i % 2}") for i in range(arity)]
    tuples = [
        tuple(rng.randrange(1000) for _ in range(arity)) for _ in range(rows)
    ]
    return GraphRelation(attributes, tuples)


class TestRoundTripProperties:
    """Seeded property tests for the columnar fast constructors."""

    def test_from_rows_iter_rows_round_trip(self):
        rng = random.Random(42)
        for _ in range(50):
            relation = _random_relation(
                rng, arity=rng.randint(1, 4), rows=rng.randint(0, 30)
            )
            rebuilt = GraphRelation.from_rows(
                relation.attributes, list(relation.iter_rows())
            )
            assert rebuilt.attributes == relation.attributes
            assert list(rebuilt.iter_rows()) == list(relation.iter_rows())
            assert rebuilt.tuples == relation.tuples

    def test_from_columns_preserves_columns(self):
        rng = random.Random(43)
        for _ in range(50):
            relation = _random_relation(
                rng, arity=rng.randint(1, 4), rows=rng.randint(0, 30)
            )
            rebuilt = GraphRelation.from_columns(
                relation.attributes,
                [list(column) for column in relation.columns_view()],
            )
            assert rebuilt.tuples == relation.tuples


class TestSplitConcatEdgeCases:
    def test_duplicate_attribute_keys_still_rejected(self):
        # from_columns skips validation, but the public constructor must keep
        # rejecting a repeated key even when the types differ.
        with pytest.raises(TgmError):
            GraphRelation(
                [GraphAttribute("A", "T"), GraphAttribute("A", "U")], [(1, 2)]
            )
