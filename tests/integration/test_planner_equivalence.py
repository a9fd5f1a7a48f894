"""Randomized equivalence: planner + reuse engine vs the reference matcher.

The reference pipeline (:func:`repro.core.matching.match`) is the oracle.
For randomly generated patterns over the academic, movies, and toy datasets
this suite asserts that

* ``CachingExecutor.match`` (the planner's join, re-sorted into the
  reference order) returns the *same graph relation*: same attributes in
  the same order, same tuples in the same order (so downstream ETables
  are identical, including first-appearance row order and cell order),
  from a fresh executor, cold and warm from a shared one, and across
  incremental pattern extensions (prefix-level reuse);
* the resulting ETables are equal column-for-column and cell-for-cell.

Patterns are built by seeded random walks over each schema graph with
random conditions drawn from values that actually occur in the instance
graph, so selections are neither always-empty nor always-full.
"""

import random

import pytest

from repro.tgm.conditions import (
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    NeighborSatisfies,
    NodeIn,
    NodeIs,
)
from repro.core.cache import CachingExecutor
from repro.core.matching import match
from repro.core.query_pattern import PatternEdge, PatternNode, single_node_pattern
from repro.core.session import EtableSession
from repro.core.transform import execute_pattern

PATTERNS_PER_DATASET = 25
MAX_PATTERN_NODES = 4


# ----------------------------------------------------------------------
# Random pattern generation
# ----------------------------------------------------------------------
def _random_condition(rng, graph, type_name):
    """A condition over values that actually occur for ``type_name``."""
    nodes = graph.nodes_of_type(type_name)
    if not nodes:
        return None
    sample = rng.choice(nodes)
    choices = ["compare", "like", "in", "node_is", "node_in", "neighbor"]
    kind = rng.choice(choices)
    if kind in ("compare", "like", "in"):
        attributes = [
            attr
            for attr, value in sample.attributes.items()
            if value is not None
        ]
        if not attributes:
            return NodeIs(sample.node_id)
        attribute = rng.choice(attributes)
        value = sample.attributes[attribute]
        if kind == "compare":
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            return AttributeCompare(attribute, op, value)
        if kind == "like":
            text = str(value)
            if len(text) >= 2:
                start = rng.randrange(len(text) - 1)
                piece = text[start : start + 3]
            else:
                piece = text
            return AttributeLike(attribute, f"%{piece}%")
        others = [
            node.attributes.get(attribute)
            for node in rng.sample(nodes, min(3, len(nodes)))
        ]
        values = tuple(
            {value, *[v for v in others if v is not None]}
        )
        return AttributeIn(attribute, values)
    if kind == "node_is":
        return NodeIs(sample.node_id)
    if kind == "node_in":
        picks = rng.sample(nodes, min(rng.randrange(1, 6), len(nodes)))
        return NodeIn([node.node_id for node in picks])
    edges = graph.schema.edges_from(type_name)
    if not edges:
        return NodeIs(sample.node_id)
    edge = rng.choice(edges)
    target_label = graph.schema.node_type(edge.target).label_attribute
    neighbors = graph.neighbors(sample.node_id, edge.name)
    if neighbors:
        text = str(neighbors[0].attributes.get(target_label, ""))[:3]
    else:
        text = "a"
    return NeighborSatisfies(edge.name, AttributeLike(target_label, f"%{text}%"))


def _random_pattern(rng, tgdb, max_nodes=MAX_PATTERN_NODES):
    schema, graph = tgdb.schema, tgdb.graph
    populated = [
        node_type.name
        for node_type in schema.node_types
        if graph.node_ids_of_type(node_type.name)
    ]
    pattern = single_node_pattern(schema, rng.choice(populated))
    for _ in range(rng.randrange(max_nodes)):
        anchor_key = rng.choice([node.key for node in pattern.nodes])
        anchor_type = pattern.node(anchor_key).type_name
        edges = schema.edges_from(anchor_type)
        if not edges:
            continue
        edge = rng.choice(edges)
        new_key = pattern.fresh_key(edge.target)
        pattern = pattern.with_node(
            PatternNode(new_key, edge.target),
            PatternEdge(edge.name, anchor_key, new_key),
        )
    # Sprinkle conditions on random nodes (possibly several on one node).
    for node in list(pattern.nodes):
        if rng.random() < 0.6:
            condition = _random_condition(rng, graph, node.type_name)
            if condition is not None:
                pattern = pattern.with_conditions(node.key, [condition])
    # Random primary: the matched relation (and ETable pivot) depends on it.
    primary = rng.choice([node.key for node in pattern.nodes])
    return pattern.with_primary(primary)


def _assert_same_relation(planned, reference):
    assert planned.keys == reference.keys
    assert planned.tuples == reference.tuples


def _assert_same_etable(actual, expected):
    assert [c.key for c in actual.columns] == [c.key for c in expected.columns]
    assert len(actual) == len(expected)
    for left, right in zip(actual.rows, expected.rows):
        assert left.node_id == right.node_id
        assert left.attributes == right.attributes
        assert left.cells == right.cells


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
@pytest.fixture(params=["academic", "movies", "toy"])
def dataset(request):
    return request.getfixturevalue(request.param)


def test_randomized_planner_equivalence(dataset):
    rng = random.Random(20260726)
    executor = CachingExecutor(dataset.graph)
    for iteration in range(PATTERNS_PER_DATASET):
        pattern = _random_pattern(rng, dataset)
        reference = match(pattern, dataset.graph)
        planned = CachingExecutor(dataset.graph).match(pattern)
        _assert_same_relation(planned, reference)
        cold = executor.match(pattern)
        _assert_same_relation(cold, reference)
        warm = executor.match(pattern)  # whole-pattern cache hit
        _assert_same_relation(warm, reference)


def test_randomized_etable_equivalence(dataset):
    rng = random.Random(8)
    for iteration in range(10):
        pattern = _random_pattern(rng, dataset)
        planned = execute_pattern(pattern, dataset.graph, engine="planned")
        naive = execute_pattern(pattern, dataset.graph, engine="naive")
        _assert_same_etable(planned, naive)


def test_randomized_incremental_extensions(dataset):
    """Grow a pattern node by node; every step must reuse the previous one."""
    rng = random.Random(99)
    graph = dataset.graph
    schema = dataset.schema
    executor = CachingExecutor(graph)
    populated = [
        node_type.name
        for node_type in schema.node_types
        if graph.node_ids_of_type(node_type.name)
    ]
    pattern = single_node_pattern(schema, rng.choice(populated))
    _assert_same_relation(executor.match(pattern), match(pattern, graph))
    for _ in range(4):
        anchor_key = rng.choice([node.key for node in pattern.nodes])
        edges = schema.edges_from(pattern.node(anchor_key).type_name)
        if not edges:
            continue
        edge = rng.choice(edges)
        new_key = pattern.fresh_key(edge.target)
        before = executor.stats.prefix_hits
        pattern = pattern.with_node(
            PatternNode(new_key, edge.target),
            PatternEdge(edge.name, anchor_key, new_key),
        )
        _assert_same_relation(executor.match(pattern), match(pattern, graph))
        assert executor.stats.prefix_hits == before + 1
        assert executor.stats.reused_nodes >= len(pattern.nodes) - 1


class TestIncrementalSessionScript:
    """Cache hits over a realistic incremental browsing script."""

    def _drive(self, tgdb):
        session = EtableSession(tgdb.schema, tgdb.graph)
        session.open("Conferences")
        sigmod = session.current.find_row_by_attribute("acronym", "SIGMOD")
        session.see_all(sigmod, "Conferences->Papers")
        session.filter(AttributeCompare("year", ">", 2005))
        session.pivot("Papers->Authors")
        session.pivot("Authors->Institutions")
        session.filter(AttributeLike("country", "%Korea%"))
        session.revert(2)  # re-executes an already-seen pattern verbatim
        return session

    def test_script_produces_reference_results(self, toy):
        session = self._drive(toy)
        executor = session._executor
        assert executor is not None
        # Multi-node tables are walked from their cached semi-join
        # reductions, so no joined prefix is reused; the revert re-executes
        # an already-seen pattern and hits its reduction.
        assert executor.stats.hits >= 1
        assert executor.stats.prefix_hits == 0
        # Every history pattern re-executes to the oracle's exact ETable,
        # each one answered from the whole-pattern store.
        misses = executor.stats.misses
        for entry in session.history:
            expected = execute_pattern(entry.pattern, toy.graph, engine="naive")
            actual = executor.execute(entry.pattern)
            _assert_same_etable(actual, expected)
        assert executor.stats.misses == misses

    def test_script_matches_uncached_session(self, toy):
        cached = self._drive(toy)
        plain = EtableSession(toy.schema, toy.graph, engine="naive")
        plain.open("Conferences")
        sigmod = plain.current.find_row_by_attribute("acronym", "SIGMOD")
        plain.see_all(sigmod, "Conferences->Papers")
        plain.filter(AttributeCompare("year", ">", 2005))
        plain.pivot("Papers->Authors")
        plain.pivot("Authors->Institutions")
        plain.filter(AttributeLike("country", "%Korea%"))
        plain.revert(2)
        _assert_same_etable(cached.current, plain.current)
