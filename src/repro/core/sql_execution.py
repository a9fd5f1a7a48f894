"""Executing ETable queries as SQL on SQLite (Section 6.2).

The paper's server translates a query pattern into SQL and notes: "To
efficiently perform queries, we partition a long SQL query into multiple
queries consisting of a fewer number of relations to be joined (i.e., each
for a single entity-reference column) and merge them." Both strategies are
implemented here:

* **monolithic** — one big join with ``ENT_LIST`` aggregates and a GROUP BY
  on the primary key (the Section 8 general pattern, verbatim);
* **partitioned** — one row-set query plus one two-column query per
  entity-reference column. Each per-column query joins only the pattern
  *path* from the primary to that column's node; subtrees hanging off the
  path are preserved as semijoin ``EXISTS`` clauses so the strategy returns
  exactly the same cells as the monolithic query (Yannakakis-style tree
  reduction).

Both produce a :class:`PatternSqlResult`, comparable with the pure-graph
execution via :func:`graph_result_summary` — the cross-validation used by
the integration tests and the ablation bench.

Both strategies run on a :class:`~repro.relational.sqlite.SqliteDatabase`,
the stdlib SQLite engine standing in for the paper's PostgreSQL. Load it
once and pass it to every call: loading copies the whole database.

SQLite compares values of different types through column affinity, so
``year = '2010'`` matches the 2010 rows and ``year < 'a'`` matches every
year, where the graph matches nothing in both cases. Every statement the
tests, benches, examples and the study run is type-correct, so none of them
sees this difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import EtableError
from repro.relational.sqlite import SqliteDatabase
from repro.tgm.instance_graph import InstanceGraph
from repro.tgm.schema_graph import SchemaGraph
from repro.translate.schema_translator import TranslationMap
from repro.core.etable import ETable
from repro.core.query_pattern import PatternEdge, QueryPattern
from repro.core.sql_translation import (
    _Translator,
    correlate_pattern_edge,
    pattern_to_sql,
)
from repro.core.transform import execute_pattern


@dataclass
class PatternSqlResult:
    """Execution result in a representation-independent shape.

    ``primary_keys`` are relational keys (not graph node ids) so results
    from SQL and graph execution can be compared directly. ``cells`` maps
    primary key → participating pattern key → frozenset of related keys.
    """

    primary_keys: list[Any]
    cells: dict[Any, dict[str, frozenset]]
    queries: list[str] = field(default_factory=list)

    def key_set(self) -> frozenset:
        return frozenset(self.primary_keys)


def execute_monolithic(
    engine: SqliteDatabase,
    pattern: QueryPattern,
    schema: SchemaGraph,
    mapping: TranslationMap,
    graph: InstanceGraph | None = None,
) -> PatternSqlResult:
    """Run the single-query strategy on ``engine``."""
    translation = pattern_to_sql(pattern, schema, mapping, graph)
    result = engine.execute(translation.sql)
    key_position = result.column_position(translation.primary_key_alias)
    ref_positions = {
        key: result.column_position(output)
        for key, output in translation.participating_aliases.items()
    }
    primary_keys: list[Any] = []
    cells: dict[Any, dict[str, frozenset]] = {}
    for row in result.rows:
        primary = row[key_position]
        primary_keys.append(primary)
        cells[primary] = {
            key: frozenset(row[position])
            for key, position in ref_positions.items()
        }
    return PatternSqlResult(primary_keys, cells, queries=[translation.sql])


def execute_partitioned(
    engine: SqliteDatabase,
    pattern: QueryPattern,
    schema: SchemaGraph,
    mapping: TranslationMap,
    graph: InstanceGraph | None = None,
) -> PatternSqlResult:
    """Run the per-column strategy of Section 6.2 on ``engine``."""
    queries = build_partitioned_queries(pattern, schema, mapping, graph)
    row_result = engine.execute(queries.row_sql)
    key_position = row_result.column_position("etable_key")
    primary_keys = [row[key_position] for row in row_result.rows]
    key_set = set(primary_keys)
    cells: dict[Any, dict[str, frozenset]] = {key: {} for key in primary_keys}
    executed = [queries.row_sql]
    for participating_key, column_sql in queries.column_sql.items():
        result = engine.execute(column_sql)
        primary_position = result.column_position("etable_key")
        ref_position = result.column_position("ref")
        collected: dict[Any, set] = {}
        for row in result.rows:
            primary = row[primary_position]
            if primary not in key_set:
                continue  # pragma: no cover - semijoins prevent this
            collected.setdefault(primary, set()).add(row[ref_position])
        for key in primary_keys:
            cells[key][participating_key] = frozenset(collected.get(key, ()))
        executed.append(column_sql)
    return PatternSqlResult(primary_keys, cells, queries=executed)


@dataclass
class PartitionedQueries:
    row_sql: str
    column_sql: dict[str, str]


def build_partitioned_queries(
    pattern: QueryPattern,
    schema: SchemaGraph,
    mapping: TranslationMap,
    graph: InstanceGraph | None = None,
) -> PartitionedQueries:
    """Emit the row-set query and one query per entity-reference column."""
    base = _Translator(pattern, schema, mapping, graph)
    translation = base.translate()
    primary_expr = base.bindings[pattern.primary_key].key_expr
    from_clause = ", ".join(f"{t} {a}" for t, a in translation.from_items)
    row_sql = f"SELECT DISTINCT {primary_expr} AS etable_key FROM {from_clause}"
    if translation.conditions:
        row_sql += f" WHERE {' AND '.join(translation.conditions)}"

    parents = _parent_map(pattern)
    column_sql: dict[str, str] = {}
    for offset, participating_key in enumerate(pattern.participating_keys):
        column_sql[participating_key] = _column_query(
            pattern, schema, mapping, graph, parents, participating_key,
            alias_offset=(offset + 1) * 200,
        )
    return PartitionedQueries(row_sql, column_sql)


def _parent_map(pattern: QueryPattern) -> dict[str, tuple[str, PatternEdge] | None]:
    parents: dict[str, tuple[str, PatternEdge] | None] = {
        pattern.primary_key: None
    }
    for key, edge in pattern.traversal_order():
        if edge is None:
            continue
        other = edge.source_key if edge.target_key == key else edge.target_key
        parents[key] = (other, edge)
    return parents


def _path_to_primary(
    parents: dict[str, tuple[str, PatternEdge] | None], key: str
) -> tuple[list[str], list[PatternEdge]]:
    nodes = [key]
    edges: list[PatternEdge] = []
    current = key
    while parents[current] is not None:
        parent, edge = parents[current]  # type: ignore[misc]
        nodes.append(parent)
        edges.append(edge)
        current = parent
    nodes.reverse()
    edges.reverse()
    return nodes, edges


def _column_query(
    pattern: QueryPattern,
    schema: SchemaGraph,
    mapping: TranslationMap,
    graph: InstanceGraph | None,
    parents: dict[str, tuple[str, PatternEdge] | None],
    participating_key: str,
    alias_offset: int,
) -> str:
    path_nodes, path_edges = _path_to_primary(parents, participating_key)
    chain = QueryPattern(
        primary_key=pattern.primary_key,
        nodes=tuple(pattern.node(key) for key in path_nodes),
        edges=tuple(path_edges),
    )
    translator = _Translator(chain, schema, mapping, graph)
    translator._alias_counter = alias_offset
    translation = translator.translate()

    # Semijoin-reduce every path node by its hanging subtrees.
    on_path = set(path_nodes)
    exists_offset = alias_offset + 50
    for path_key in path_nodes:
        for edge in pattern.edges_touching(path_key):
            other = (
                edge.target_key
                if edge.source_key == path_key
                else edge.source_key
            )
            if other in on_path:
                continue
            clause = _subtree_exists(
                pattern, schema, mapping, graph, path_key,
                translator.bindings[path_key], edge, other, exists_offset,
            )
            translator.conditions.append(clause)
            exists_offset += 50

    primary_expr = translator.bindings[pattern.primary_key].key_expr
    ref_expr = translator.bindings[participating_key].key_expr
    from_clause = ", ".join(f"{t} {a}" for t, a in translator.from_items)
    sql = (
        f"SELECT DISTINCT {primary_expr} AS etable_key, {ref_expr} AS ref "
        f"FROM {from_clause}"
    )
    if translator.conditions:
        sql += f" WHERE {' AND '.join(translator.conditions)}"
    return sql


def _subtree_exists(
    pattern: QueryPattern,
    schema: SchemaGraph,
    mapping: TranslationMap,
    graph: InstanceGraph | None,
    outer_key: str,
    outer_binding,
    edge: PatternEdge,
    subtree_root: str,
    alias_offset: int,
) -> str:
    subtree_keys = _collect_subtree(pattern, subtree_root, avoid=outer_key)
    subtree = QueryPattern(
        primary_key=subtree_root,
        nodes=tuple(pattern.node(key) for key in subtree_keys),
        edges=tuple(
            pattern_edge
            for pattern_edge in pattern.edges
            if pattern_edge.source_key in subtree_keys
            and pattern_edge.target_key in subtree_keys
        ),
    )
    sub = _Translator(subtree, schema, mapping, graph)
    sub._alias_counter = alias_offset
    sub_translation = sub.translate()
    entry = mapping.edges[edge.edge_type]
    correlation = correlate_pattern_edge(
        edge, entry.kind, entry.data, outer_key, outer_binding,
        sub.bindings[subtree_root], sub,
    )
    from_clause = ", ".join(f"{t} {a}" for t, a in sub.from_items)
    conditions = sub_translation.conditions + correlation
    return (
        f"EXISTS (SELECT 1 FROM {from_clause} "
        f"WHERE {' AND '.join(conditions)})"
    )


def _collect_subtree(pattern: QueryPattern, root: str, avoid: str) -> list[str]:
    seen = [root]
    frontier = [root]
    while frontier:
        current = frontier.pop()
        for edge in pattern.edges_touching(current):
            other = (
                edge.target_key
                if edge.source_key == current
                else edge.source_key
            )
            if other == avoid or other in seen:
                continue
            seen.append(other)
            frontier.append(other)
    return seen


def graph_result_summary(
    source: ETable | QueryPattern,
    graph: InstanceGraph | None = None,
) -> PatternSqlResult:
    """The pure-graph execution, reshaped for comparison with SQL results.

    Accepts an executed :class:`ETable` or a pattern (which is executed).
    Keys are the nodes' relational source keys.
    """
    if isinstance(source, QueryPattern):
        if graph is None:
            raise EtableError("graph_result_summary(pattern) needs the graph")
        etable = execute_pattern(source, graph)
    else:
        etable = source
    graph = etable.graph
    participating = [
        column.key for column in etable.participating_columns()
    ]
    primary_keys: list[Any] = []
    cells: dict[Any, dict[str, frozenset]] = {}
    for row in etable.rows:
        key = graph.node(row.node_id).source_key
        primary_keys.append(key)
        cells[key] = {
            column_key: frozenset(
                graph.node(node_id).source_key
                for node_id in row.cells.get(column_key, ())
            )
            for column_key in participating
        }
    return PatternSqlResult(primary_keys, cells)


def results_equal(left: PatternSqlResult, right: PatternSqlResult) -> bool:
    """Order-insensitive equality of rows and cells."""
    return left.key_set() == right.key_set() and left.cells == right.cells
