"""Unit tests for node selection conditions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TgmError
from repro.tgm.conditions import (
    AndCondition,
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    LabelLike,
    NeighborSatisfies,
    NodeIs,
    NotCondition,
    OrCondition,
    compile_like,
    conjoin_conditions,
)
from repro.tgm.instance_graph import InstanceGraph
from repro.tgm.schema_graph import EdgeTypeCategory, NodeType, SchemaGraph


@pytest.fixture
def graph() -> InstanceGraph:
    schema = SchemaGraph()
    schema.add_node_type(NodeType("Papers", ("id", "title", "year"), "title"))
    schema.add_node_type(NodeType("Authors", ("id", "name"), "name"))
    schema.add_edge_type_pair(
        "Papers->Authors", "Authors->Papers",
        source="Papers", target="Authors",
        category=EdgeTypeCategory.MANY_TO_MANY,
    )
    instance = InstanceGraph(schema)
    paper = instance.add_node(
        "Papers", {"id": 1, "title": "Usable systems", "year": 2007}
    )
    author = instance.add_node("Authors", {"id": 2, "name": "Jagadish"})
    instance.add_edge("Papers->Authors", paper.node_id, author.node_id)
    instance.add_node("Papers", {"id": 3, "title": "Other", "year": None})
    return instance


def paper(graph, node_id=1):
    return graph.node(node_id)


class TestAttributeCompare:
    def test_equality(self, graph):
        assert AttributeCompare("year", "=", 2007).matches(paper(graph), graph)

    def test_ordering(self, graph):
        assert AttributeCompare("year", ">", 2000).matches(paper(graph), graph)
        assert not AttributeCompare("year", "<", 2000).matches(paper(graph), graph)

    def test_null_never_matches(self, graph):
        null_paper = graph.node(3)
        assert not AttributeCompare("year", "=", None).matches(null_paper, graph)
        assert not AttributeCompare("year", ">", 1).matches(null_paper, graph)

    def test_type_mismatch_is_false(self, graph):
        assert not AttributeCompare("year", "<", "abc").matches(paper(graph), graph)

    def test_unknown_operator(self):
        with pytest.raises(TgmError):
            AttributeCompare("year", "~", 1)

    def test_describe(self):
        assert AttributeCompare("year", ">", 2005).describe() == "year > 2005"
        assert AttributeCompare("name", "=", "Bob").describe() == "name = 'Bob'"


class TestAttributeLike:
    def test_contains(self, graph):
        assert AttributeLike("title", "%usable%").matches(paper(graph), graph)

    def test_negate(self, graph):
        assert AttributeLike("title", "%zzz%", negate=True).matches(
            paper(graph), graph
        )

    def test_null_never_matches(self, graph):
        assert not AttributeLike("year", "%1%").matches(graph.node(3), graph)

    def test_describe(self):
        condition = AttributeLike("country", "%Korea%")
        assert condition.describe() == "country like '%Korea%'"


class TestCompileLike:
    def test_contains(self):
        assert compile_like("%user%").match("user interface")

    def test_case_insensitive(self):
        assert compile_like("%korea%").match("South Korea")

    def test_underscore(self):
        assert compile_like("c_t").match("cat")
        assert not compile_like("c_t").match("cart")

    def test_anchored(self):
        assert compile_like("data%").match("database")
        assert not compile_like("data%").match("metadata")

    def test_regex_chars_escaped(self):
        assert compile_like("a.b").match("a.b")
        assert not compile_like("a.b").match("axb")


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab%", max_size=6), st.text(alphabet="ab", max_size=6))
def test_like_matches_reference(pattern, text):
    matched = compile_like(pattern).match(text) is not None
    assert matched == _reference_like(pattern, text)


def _reference_like(pattern: str, text: str) -> bool:
    """Simple recursive LIKE reference (case differences don't arise here)."""
    if not pattern:
        return not text
    head, rest = pattern[0], pattern[1:]
    if head == "%":
        return any(
            _reference_like(rest, text[i:]) for i in range(len(text) + 1)
        )
    return bool(text) and text[0] == head and _reference_like(rest, text[1:])


class TestOtherConditions:
    def test_attribute_in(self, graph):
        assert AttributeIn("year", (2007, 2008)).matches(paper(graph), graph)
        assert not AttributeIn("year", (1999,)).matches(paper(graph), graph)

    def test_node_is(self, graph):
        assert NodeIs(1).matches(paper(graph), graph)
        assert not NodeIs(2).matches(paper(graph), graph)

    def test_node_is_describe_uses_label(self):
        assert NodeIs(5, label="SIGMOD").describe() == "= 'SIGMOD'"
        assert NodeIs(5).describe() == "node #5"

    def test_label_like(self, graph):
        assert LabelLike("%usable%").matches(paper(graph), graph)

    def test_neighbor_satisfies(self, graph):
        condition = NeighborSatisfies(
            "Papers->Authors", AttributeLike("name", "%jaga%")
        )
        assert condition.matches(paper(graph), graph)
        assert not condition.matches(graph.node(3), graph)

    def test_neighbor_satisfies_describe(self):
        condition = NeighborSatisfies(
            "Papers->Authors", AttributeCompare("name", "=", "X")
        )
        assert "Papers->Authors" in condition.describe()

    def test_and_or_not(self, graph):
        young = AttributeCompare("year", ">", 2000)
        usable = AttributeLike("title", "%usable%")
        assert AndCondition((young, usable)).matches(paper(graph), graph)
        assert OrCondition(
            (AttributeCompare("year", "=", 1900), usable)
        ).matches(paper(graph), graph)
        assert NotCondition(AttributeCompare("year", "=", 1900)).matches(
            paper(graph), graph
        )

    def test_describe_combinators(self):
        a = AttributeCompare("x", "=", 1)
        b = AttributeCompare("y", "=", 2)
        assert AndCondition((a, b)).describe() == "x = 1 & y = 2"
        assert OrCondition((a, b)).describe() == "(x = 1) | (y = 2)"
        assert NotCondition(a).describe() == "not (x = 1)"


class TestConjoin:
    def test_empty_is_none(self):
        assert conjoin_conditions([]) is None

    def test_single_passthrough(self):
        condition = AttributeCompare("x", "=", 1)
        assert conjoin_conditions([condition]) is condition

    def test_flattens_nested_and(self):
        a = AttributeCompare("x", "=", 1)
        b = AttributeCompare("y", "=", 2)
        c = AttributeCompare("z", "=", 3)
        combined = conjoin_conditions([AndCondition((a, b)), c])
        assert isinstance(combined, AndCondition)
        assert len(combined.operands) == 3
