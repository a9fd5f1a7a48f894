"""Format transformation (Section 5.4.2): graph relation → enriched table.

The matched graph relation is pivoted to the primary node type:

* rows    = Π_τa(m(Q)) — distinct primary nodes, first-appearance order;
* Ab      = the primary type's attributes (scalar cells);
* At      = one entity-reference column per non-primary pattern node, the
            distinct nodes co-occurring with the row in matched tuples;
* Ah      = one entity-reference column per schema edge type leaving the
            primary type, filled by direct neighbor lookups.

This is "similar to setting one of the relations as a GROUP BY attribute in
SQL, but while GROUP BY aggregates ... ETable presents a list of the
corresponding instances as entity references".

Neighbor columns that duplicate a participating column (the pattern already
joins that edge from the primary) are auto-hidden, mirroring Figure 8's
remark that duplicated neighbor columns are omitted from display; they can
be re-shown with :meth:`ETable.show_column`.
"""

from __future__ import annotations

from typing import Any
from weakref import WeakKeyDictionary

from repro.tgm.graph_relation import GraphRelation
from repro.tgm.instance_graph import InstanceGraph, Node
from repro.core.etable import ColumnKind, ColumnSpec, ETable, ETableRow, EntityRef
from repro.core.matching import match, match_planned
from repro.core.query_pattern import QueryPattern


def execute_pattern(
    pattern: QueryPattern,
    graph: InstanceGraph,
    row_limit: int | None = None,
    engine: str = "planned",
) -> ETable:
    """Run the full pipeline: instance matching, then format transformation.

    ``row_limit`` truncates the *presented* rows (UI pagination); matching
    itself is always complete so reference counts stay exact.

    ``engine`` selects the matcher: ``"planned"`` (default) runs the
    cost-based planner, ``"naive"`` the reference BFS pipeline. Both
    produce the same ETable; the reference stays available as the oracle.
    """
    if engine == "planned":
        matched = match_planned(pattern, graph)
    elif engine == "naive":
        matched = match(pattern, graph)
    else:
        raise ValueError(f"unknown matching engine {engine!r}")
    return transform(pattern, matched, graph, row_limit=row_limit)


def transform(
    pattern: QueryPattern,
    matched: GraphRelation,
    graph: InstanceGraph,
    row_limit: int | None = None,
) -> ETable:
    """Pivot a matched graph relation into an :class:`ETable`."""
    schema = graph.schema
    primary = pattern.primary
    primary_type = schema.node_type(primary.type_name)

    columns: list[ColumnSpec] = [
        ColumnSpec(ColumnKind.BASE, attribute, attribute)
        for attribute in primary_type.attributes
    ]
    participating_keys = pattern.participating_keys
    for key in participating_keys:
        node = pattern.node(key)
        columns.append(
            ColumnSpec(ColumnKind.PARTICIPATING, key, key, node.type_name)
        )
    neighbor_edges = schema.edges_from(primary.type_name)
    for edge_type in neighbor_edges:
        columns.append(
            ColumnSpec(
                ColumnKind.NEIGHBOR,
                edge_type.name,
                edge_type.display_name,
                edge_type.target,
            )
        )

    primary_position = matched.position(primary.key)
    participating_positions = [
        (key, matched.position(key)) for key in participating_keys
    ]

    # One streamed pass over the matched tuples (no row-wise materialization
    # of the relation): collect row order and the distinct participating
    # nodes per (row, column).
    row_order: list[int] = []
    row_index: dict[int, int] = {}
    cell_sets: list[dict[str, dict[int, None]]] = []  # ordered-set per cell
    for tuple_row in matched.iter_rows():
        primary_id = tuple_row[primary_position]
        index = row_index.get(primary_id)
        if index is None:
            index = len(row_order)
            row_index[primary_id] = index
            row_order.append(primary_id)
            cell_sets.append({key: {} for key, _ in participating_positions})
        sets = cell_sets[index]
        for key, position in participating_positions:
            sets[key][tuple_row[position]] = None

    if row_limit is not None:
        row_order = row_order[:row_limit]

    refs = _ref_cache(graph)

    def ref_of(node_id: int) -> EntityRef:
        ref = refs.get(node_id)
        if ref is None:
            ref = _node_ref(graph.node(node_id), schema)
            refs[node_id] = ref
        return ref

    rows: list[ETableRow] = []
    for index, primary_id in enumerate(row_order):
        node = graph.node(primary_id)
        cells: dict[str, list[EntityRef]] = {}
        for key, _ in participating_positions:
            cells[key] = [
                ref_of(node_id) for node_id in cell_sets[index][key]
            ]
        for edge_type in neighbor_edges:
            cells[edge_type.name] = [
                ref_of(neighbor_id)
                for neighbor_id in graph.neighbors_view(
                    primary_id, edge_type.name
                )
            ]
        rows.append(
            ETableRow(
                node_id=primary_id,
                attributes=dict(node.attributes),
                cells=cells,
            )
        )

    etable = ETable(pattern, columns, rows, graph)
    _auto_hide_duplicated_neighbors(etable)
    return etable


# EntityRefs are immutable and depend only on a node's label, so one cache
# per graph version serves every transform over that graph. WeakKeyDictionary
# keeps dropped graphs collectable; the version check drops stale labels
# after a mutation.
_REF_CACHES: "WeakKeyDictionary[InstanceGraph, tuple[int, dict[int, EntityRef]]]" = (
    WeakKeyDictionary()
)


def _ref_cache(graph: InstanceGraph) -> dict[int, EntityRef]:
    entry = _REF_CACHES.get(graph)
    if entry is None or entry[0] != graph.version:
        entry = (graph.version, {})
        _REF_CACHES[graph] = entry
    return entry[1]


def _entity_ref(graph: InstanceGraph, node_id: int) -> EntityRef:
    return _node_ref(graph.node(node_id), graph.schema)


def _node_ref(node: Node, schema) -> EntityRef:
    return EntityRef(
        node_id=node.node_id,
        type_name=node.type_name,
        label=node.label(schema),
    )


def _auto_hide_duplicated_neighbors(etable: ETable) -> None:
    """Hide neighbor columns whose edge the pattern already joins from the
    primary node (their content duplicates a participating column)."""
    pattern = etable.pattern
    primary_key = pattern.primary_key
    duplicated_edges: set[str] = set()
    for edge in pattern.edges_touching(primary_key):
        if edge.source_key == primary_key:
            duplicated_edges.add(edge.edge_type)
        else:
            # The pattern edge points at the primary; the matching neighbor
            # column uses the reverse twin.
            schema_edge = etable.graph.schema.edge_type(edge.edge_type)
            if schema_edge.reverse_name is not None:
                duplicated_edges.add(schema_edge.reverse_name)
    for column in etable.neighbor_columns():
        if column.key in duplicated_edges:
            etable.hide_column(column.key)


def duplication_factor(pattern: QueryPattern, graph: InstanceGraph) -> float:
    """How many flat join tuples each ETable row replaces.

    This quantifies the paper's motivating claim that join results are
    "hard to interpret (e.g., many duplicated cells)": a flat relational
    join of the pattern yields ``len(m(Q))`` tuples while ETable presents
    one row per primary node.
    """
    matched = match(pattern, graph)
    distinct = len(matched.distinct_column(pattern.primary_key))
    if distinct == 0:
        return 0.0
    return len(matched) / distinct
