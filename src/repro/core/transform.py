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

Two builders produce that table. :func:`transform` folds a matched flat
relation, which repeats cells across many-to-many edges.
:func:`transform_reduced` walks the displayed rows through a pattern's
semi-join reduction (:func:`repro.core.planner.reduce_plan`) instead, so
the flat join is never built; ``repro.core.cache`` uses it for every
pattern with more than one node. Both share the assembly of columns,
neighbor cells and entity references.

Neighbor columns that duplicate a participating column (the pattern already
joins that edge from the primary) are auto-hidden, mirroring Figure 8's
remark that duplicated neighbor columns are omitted from display; they can
be re-shown with :meth:`ETable.show_column`.
"""

from __future__ import annotations

from typing import Iterable, Mapping
from weakref import WeakKeyDictionary

from repro.tgm.graph_relation import GraphRelation
from repro.tgm.instance_graph import InstanceGraph, Node
from repro.core.etable import ColumnKind, ColumnSpec, ETable, ETableRow, EntityRef
from repro.core.matching import match
from repro.core.query_pattern import QueryPattern


def execute_pattern(
    pattern: QueryPattern,
    graph: InstanceGraph,
    row_limit: int | None = None,
    engine: str = "planned",
) -> ETable:
    """Build the ETable of ``pattern`` in one shot.

    ``row_limit`` truncates the *presented* rows (UI pagination); matching
    itself is always complete so reference counts stay exact.

    ``engine="planned"`` (default) builds through a fresh
    :class:`~repro.core.cache.CachingExecutor`, the path a session takes,
    with caches that live for this one call. ``"naive"`` runs the
    reference BFS matcher, then :func:`transform`; it stays the oracle.
    """
    if engine == "planned":
        # Imported here: repro.core.cache imports this module.
        from repro.core.cache import CachingExecutor

        return CachingExecutor(graph).execute(pattern, row_limit)
    if engine == "naive":
        return transform(pattern, match(pattern, graph), graph,
                         row_limit=row_limit)
    raise ValueError(f"unknown matching engine {engine!r}")


def transform(
    pattern: QueryPattern,
    matched: GraphRelation,
    graph: InstanceGraph,
    row_limit: int | None = None,
) -> ETable:
    """Pivot a matched graph relation into an :class:`ETable`."""
    primary_position = matched.position(pattern.primary_key)
    participating_positions = [
        (key, matched.position(key)) for key in pattern.participating_keys
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
    return _assemble(pattern, graph, zip(row_order, cell_sets))


def transform_reduced(
    pattern: QueryPattern,
    reduced: Mapping[str, frozenset[int] | None],
    graph: InstanceGraph,
    row_limit: int | None = None,
) -> ETable:
    """Build a pattern's :class:`ETable` from its semi-join reduction.

    ``reduced`` maps every pattern node to the ids on at least one
    complete match (None: every node of its type), as
    :func:`repro.core.planner.reduce_plan` computes it. Rows are the
    reduced primary ids in type-insertion order (ids ascend in creation
    order), cut to ``row_limit`` before any row is built. Cells are
    reached from the row down the tree of
    :meth:`~repro.core.query_pattern.QueryPattern.traversal_order`: a
    node's cell lists the reduced neighbors of its parent's cell, taken
    in that cell's order and then in adjacency order, each once. That is
    the first-visit order of a depth-first walk along the column's path,
    and the order in which :func:`transform` first meets each node in the
    reference-ordered flat relation, so both build the same table.
    """
    primary = pattern.primary
    primary_ids = reduced[primary.key]
    row_order = (
        graph.node_ids_of_type(primary.type_name)
        if primary_ids is None else sorted(primary_ids)
    )
    if row_limit is not None:
        row_order = row_order[:row_limit]
    steps = []  # (node key, parent key, traversal edge), parents first
    for key, edge in pattern.traversal_order()[1:]:
        assert edge is not None  # every non-root BFS entry has its edge
        if edge.target_key == key:
            steps.append((key, edge.source_key, edge.edge_type))
        else:
            reverse = graph.schema.reverse_of(edge.edge_type)
            steps.append((key, edge.target_key, reverse.name))
    neighbors = graph.neighbors_view

    def cells(row_id: int) -> dict[str, Iterable[int]]:
        reached: dict[str, Iterable[int]] = {primary.key: (row_id,)}
        for key, parent, traversal in steps:
            allowed = reduced[key]
            cell: dict[int, None] = {}
            for node_id in reached[parent]:
                for neighbor in neighbors(node_id, traversal):
                    if allowed is None or neighbor in allowed:
                        cell[neighbor] = None
            reached[key] = cell
        return reached

    return _assemble(pattern, graph,
                     ((row_id, cells(row_id)) for row_id in row_order))


def _assemble(
    pattern: QueryPattern,
    graph: InstanceGraph,
    rows: Iterable[tuple[int, Mapping[str, Iterable[int]]]],
) -> ETable:
    """The ETable of ``rows``: (primary id, participating node ids per
    column key) pairs, in display order. Adds the column specs, base and
    neighbor cells and entity references, then auto-hides the neighbor
    columns the pattern duplicates."""
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

    refs = _ref_cache(graph)

    def ref_of(node_id: int) -> EntityRef:
        ref = refs.get(node_id)
        if ref is None:
            ref = _node_ref(graph.node(node_id), schema)
            refs[node_id] = ref
        return ref

    etable_rows: list[ETableRow] = []
    for primary_id, participating in rows:
        node = graph.node(primary_id)
        cells: dict[str, list[EntityRef]] = {}
        for key in participating_keys:
            cells[key] = [ref_of(node_id) for node_id in participating[key]]
        for edge_type in neighbor_edges:
            cells[edge_type.name] = [
                ref_of(neighbor_id)
                for neighbor_id in graph.neighbors_view(
                    primary_id, edge_type.name
                )
            ]
        etable_rows.append(
            ETableRow(
                node_id=primary_id,
                attributes=dict(node.attributes),
                cells=cells,
            )
        )

    etable = ETable(pattern, columns, etable_rows, graph)
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
