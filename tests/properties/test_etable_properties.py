"""Property-based tests on ETable invariants over random query patterns.

Patterns are random operator walks over the toy TGDB (Initiate, then a
mixture of Add / Select / Shift), which is exactly the space of queries a
user can reach through the interface. Invariants:

* every reachable pattern validates as a tree;
* ETable rows are distinct primary nodes, equal to Π_τa(m(Q));
* reference counts match the matched graph relation;
* graph execution == monolithic SQL == partitioned SQL (three-way), for
  every condition kind the SQL translator renders;
* replaying the same walk is deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.toy import toy_tgdb
from repro.tgm.conditions import (
    AndCondition,
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    LabelLike,
    NodeIn,
    NotCondition,
)
from repro.core.etable import ColumnKind
from repro.core.matching import match
from repro.core.operators import add, initiate, select, shift
from repro.core.sql_execution import (
    execute_monolithic,
    execute_partitioned,
    graph_result_summary,
    results_equal,
)
from repro.core.transform import execute_pattern
from repro.service.protocol import etable_to_json

# Module-level fixture data (hypothesis functions cannot take fixtures).
_TGDB = toy_tgdb()

_CONDITIONS = {
    "Papers": [
        AttributeCompare("year", ">", 2005),
        AttributeCompare("year", "<", 2013),
        AttributeLike("title", "%data%"),
        AttributeLike("title", "%data%", negate=True),
        AttributeIn("year", (2006, 2012, 2014)),
        LabelLike("%tion%"),
        NodeIn(
            _TGDB.graph.node_by_source_key("Papers", key).node_id
            for key in (1, 5, 11)
        ),
    ],
    "Conferences": [
        AttributeCompare("acronym", "=", "SIGMOD"),
        LabelLike("k%"),
    ],
    "Institutions": [
        AttributeLike("country", "%Korea%"),
        NotCondition(AttributeIn("country", ("USA", "China"))),
    ],
    "Authors": [
        AttributeLike("name", "%a%"),
        AndCondition((
            AttributeLike("name", "%a%"),
            NotCondition(AttributeCompare("name", "=", "Ann")),
        )),
    ],
    "Papers: year": [
        AttributeCompare("year", "=", 2012),
        NotCondition(AttributeCompare("year", "<", 2010)),
    ],
    "Paper_Keywords: keyword": [
        AttributeLike("keyword", "%user%"),
        LabelLike("%graph%"),
    ],
    "Institutions: country": [AttributeIn("country", ("USA", "Japan"))],
}

_ENTITY_TYPES = ["Conferences", "Institutions", "Authors", "Papers"]


@st.composite
def random_patterns(draw):
    """A random operator walk of bounded length."""
    pattern = initiate(_TGDB.schema, draw(st.sampled_from(_ENTITY_TYPES)))
    steps = draw(st.integers(min_value=0, max_value=5))
    for _ in range(steps):
        action = draw(st.sampled_from(["add", "select", "shift"]))
        if action == "add":
            edges = _TGDB.schema.edges_from(pattern.primary.type_name)
            if not edges:
                continue
            edge = draw(st.sampled_from([e.name for e in edges]))
            if len(pattern.nodes) >= 5:
                continue
            pattern = add(pattern, _TGDB.schema, edge)
        elif action == "select":
            pool = _CONDITIONS.get(pattern.primary.type_name, [])
            if not pool:
                continue
            pattern = select(pattern, draw(st.sampled_from(pool)))
        else:
            key = draw(st.sampled_from([n.key for n in pattern.nodes]))
            pattern = shift(pattern, key)
    return pattern


@settings(max_examples=50, deadline=None)
@given(random_patterns())
def test_reachable_patterns_validate(pattern):
    pattern.validate(_TGDB.schema)
    assert len(pattern.edges) == len(pattern.nodes) - 1


@settings(max_examples=50, deadline=None)
@given(random_patterns())
def test_rows_are_distinct_primary_projection(pattern):
    matched = match(pattern, _TGDB.graph)
    etable = execute_pattern(pattern, _TGDB.graph)
    row_ids = [row.node_id for row in etable.rows]
    assert len(set(row_ids)) == len(row_ids)
    assert row_ids == matched.distinct_column(pattern.primary_key)


@settings(max_examples=50, deadline=None)
@given(random_patterns())
def test_participating_cells_match_matched_tuples(pattern):
    matched = match(pattern, _TGDB.graph)
    etable = execute_pattern(pattern, _TGDB.graph)
    primary_position = matched.position(pattern.primary_key)
    for key in pattern.participating_keys:
        position = matched.position(key)
        expected: dict[int, set[int]] = {}
        for row in matched.tuples:
            expected.setdefault(row[primary_position], set()).add(row[position])
        for etable_row in etable.rows:
            assert set(etable_row.cells[key]) == expected[etable_row.node_id]


@settings(max_examples=30, deadline=None)
@given(pattern=random_patterns())
def test_three_way_execution_equivalence(toy_sql, pattern):
    graph_result = graph_result_summary(pattern, _TGDB.graph)
    mono = execute_monolithic(
        toy_sql, pattern, _TGDB.schema, _TGDB.mapping, _TGDB.graph
    )
    assert results_equal(graph_result, mono)
    part = execute_partitioned(
        toy_sql, pattern, _TGDB.schema, _TGDB.mapping, _TGDB.graph
    )
    assert results_equal(graph_result, part)


@settings(max_examples=30, deadline=None)
@given(random_patterns())
def test_execution_deterministic(pattern):
    first = execute_pattern(pattern, _TGDB.graph)
    second = execute_pattern(pattern, _TGDB.graph)
    assert [r.node_id for r in first.rows] == [r.node_id for r in second.rows]
    for row_a, row_b in zip(first.rows, second.rows):
        assert row_a.cells == row_b.cells


@settings(max_examples=30, deadline=None)
@given(random_patterns())
def test_neighbor_columns_independent_of_pattern(pattern):
    """Ah columns always mirror raw adjacency, whatever the query, and so
    does each serialized cell ``[count, id, label, ...]``, its labels
    read straight from the nodes."""
    graph = _TGDB.graph
    etable = execute_pattern(pattern, graph)
    for etable_row in etable.rows[:3]:
        for column in etable.neighbor_columns():
            adjacency = graph.neighbor_ids(etable_row.node_id, column.key)
            assert list(etable_row.cells[column.key]) == adjacency
    ref_keys = [c.key for c in etable.columns if c.kind is not ColumnKind.BASE]
    for max_refs in (None, 2):
        payload = etable_to_json(etable, max_refs=max_refs)
        for node_id, _, cells in payload["rows"][:3]:
            for column in etable.neighbor_columns():
                adjacency = graph.neighbor_ids(node_id, column.key)
                expected: list = [len(adjacency)]
                for neighbor in adjacency[:max_refs]:
                    expected += [neighbor, graph.node(neighbor).label(graph.schema)]
                assert cells[ref_keys.index(column.key)] == expected


@settings(max_examples=25, deadline=None)
@given(random_patterns(), st.integers(min_value=0, max_value=3))
def test_row_limit_is_prefix(pattern, limit):
    """A row window keeps the first rows of the full table, each with all
    of its cells, in both engines; the naive engine folds a multi-node
    pattern's flat relation, skipping the tuples of rows past the
    window."""
    full = execute_pattern(pattern, _TGDB.graph)
    expected = [(r.node_id, r.cells) for r in full.rows[:limit]]
    for engine in ("planned", "naive"):
        limited = execute_pattern(pattern, _TGDB.graph, row_limit=limit,
                                  engine=engine)
        assert [(r.node_id, r.cells) for r in limited.rows] == expected, engine
