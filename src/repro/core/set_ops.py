"""Set operations over ETables — the paper's future-work item #1.

Section 9: "Future research directions include: (1) incorporating more
operations to further improve expressive power (e.g., set operations)".
These operators combine two enriched tables whose primary node types match:

* :func:`etable_union`        — rows present in either table;
* :func:`etable_intersection` — rows present in both;
* :func:`etable_difference`   — rows of the left table absent from the right.

Rows are identified by their primary node, so the combination is exact (no
label collisions). The result keeps the *left* table's pattern and columns.
For union, cells of right-only rows come from three sources: column keys
both tables share keep the right table's cells, participating columns
exclusive to the left pattern are re-derived by executing the left pattern
restricted to those nodes — the identity restriction replaces the primary
node's own row filters, other nodes' conditions stay, and nodes failing
the structural pattern get empty cells — and neighbor columns are
recomputed from raw adjacency.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import InvalidOperator
from repro.tgm.conditions import NodeIn
from repro.core.etable import ColumnKind, ETable, ETableRow
from repro.core.query_pattern import QueryPattern


def _check_compatible(left: ETable, right: ETable) -> None:
    if left.primary_type != right.primary_type:
        raise InvalidOperator(
            f"set operation needs matching primary types, got "
            f"{left.primary_type!r} and {right.primary_type!r}"
        )
    if left.graph is not right.graph:
        raise InvalidOperator(
            "set operations require ETables over the same instance graph"
        )


def _clone_row(row: ETableRow) -> ETableRow:
    # Cells are tuples of node ids, so the clone shares them.
    return ETableRow(
        node_id=row.node_id,
        attributes=dict(row.attributes),
        cells=dict(row.cells),
    )


def _rebuild_neighbor_cells(etable: ETable, row: ETableRow) -> None:
    """Fill neighbor columns of a transplanted row from raw adjacency."""
    for column in etable.neighbor_columns():
        row.cells[column.key] = tuple(
            etable.graph.neighbor_ids(row.node_id, column.key)
        )


def _rederive_left_rows(
    left: ETable, node_ids: Iterable[int]
) -> dict[int, ETableRow]:
    """Execute the left pattern restricted to ``node_ids``.

    Returns the re-derived rows by primary node id; nodes that do not match
    the left pattern are simply absent. Used to fill participating columns
    the right table cannot supply for transplanted rows.
    """
    from repro.core.operators import select as pattern_select
    from repro.core.transform import execute_pattern  # local import, no cycle

    # The node-identity restriction *replaces* the primary node's own row
    # filters (which the transplanted rows fail by construction — that is
    # why they are right-only); conditions on the other pattern nodes are
    # kept, since they define what the participating cells contain.
    restricted = pattern_select(
        left.pattern, NodeIn(node_ids), replace_existing=True
    )
    rederived = execute_pattern(restricted, left.graph)
    return {row.node_id: row for row in rederived.rows}


def etable_union(left: ETable, right: ETable) -> ETable:
    """Rows of either table, left rows first, then right-only rows.

    Right-only rows keep the right table's cells for columns both tables
    share; participating columns exclusive to the left pattern are
    re-derived by executing the left pattern restricted to those nodes
    (rows that never matched the left pattern get empty cells there);
    neighbor columns are recomputed.
    """
    _check_compatible(left, right)
    left_ids = {row.node_id for row in left.rows}
    rows = [_clone_row(row) for row in left.rows]
    left_keys = {column.key for column in left.columns}
    right_keys = {column.key for column in right.columns}
    right_only = [row for row in right.rows if row.node_id not in left_ids]
    exclusive = [
        column for column in left.participating_columns()
        if column.key not in right_keys
    ]
    rederived = (
        _rederive_left_rows(left, (row.node_id for row in right_only))
        if right_only and exclusive else {}
    )
    scaffold = ETable(left.pattern, left.columns, [], left.graph)
    for row in right_only:
        transplanted = ETableRow(
            node_id=row.node_id,
            attributes=dict(row.attributes),
            cells={},
        )
        for key, ids in row.cells.items():
            if key in left_keys:
                transplanted.cells[key] = ids
        for column in left.participating_columns():
            if column.key in transplanted.cells:
                continue
            source = rederived.get(row.node_id)
            transplanted.cells[column.key] = (
                source.cells.get(column.key, ()) if source else ()
            )
        _rebuild_neighbor_cells(scaffold, transplanted)
        rows.append(transplanted)
    result = ETable(left.pattern, list(left.columns), rows, left.graph)
    result.hidden_columns = set(left.hidden_columns)
    return result


def etable_intersection(left: ETable, right: ETable) -> ETable:
    """Left rows whose primary node also appears in the right table."""
    _check_compatible(left, right)
    right_ids = {row.node_id for row in right.rows}
    rows = [_clone_row(row) for row in left.rows if row.node_id in right_ids]
    result = ETable(left.pattern, list(left.columns), rows, left.graph)
    result.hidden_columns = set(left.hidden_columns)
    return result


def etable_difference(left: ETable, right: ETable) -> ETable:
    """Left rows whose primary node does not appear in the right table."""
    _check_compatible(left, right)
    right_ids = {row.node_id for row in right.rows}
    rows = [
        _clone_row(row) for row in left.rows if row.node_id not in right_ids
    ]
    result = ETable(left.pattern, list(left.columns), rows, left.graph)
    result.hidden_columns = set(left.hidden_columns)
    return result
