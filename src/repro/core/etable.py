"""The enriched table — ETable's presentation data model (Section 5.1).

An ETable has three kinds of columns (Section 5.4.2):

* base-attribute columns ``Ab`` — scalar attributes of the primary type;
* participating node columns ``At`` — one per non-primary pattern node,
  holding the entity references that co-occur with the row in the matched
  graph relation;
* neighbor node columns ``Ah`` — one per schema edge type leaving the
  primary type (regardless of the pattern), holding direct neighbors. They
  both describe each row and *preview every possible next join*.

Cells of the last two kinds hold ordered sets of :class:`EntityRef` —
clickable labels, like hyperlinks, plus the reference count badge shown in
the corner of each cell in Figure 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import InvalidAction
from repro.tgm.instance_graph import InstanceGraph, Node
from repro.core.query_pattern import QueryPattern


class ColumnKind(enum.Enum):
    BASE = "base attribute"
    PARTICIPATING = "participating node"
    NEIGHBOR = "neighbor node"


@dataclass(frozen=True)
class EntityRef:
    """A reference to another entity, displayed by its label (Section 5.1)."""

    node_id: int
    type_name: str
    label: Any

    def __str__(self) -> str:
        return str(self.label)


@dataclass(frozen=True)
class ColumnSpec:
    """One ETable column.

    ``key`` identifies what the column is bound to: the attribute name for
    base columns, the pattern-node key for participating columns, and the
    schema edge-type name for neighbor columns. ``display`` is the header
    text shown to users.
    """

    kind: ColumnKind
    key: str
    display: str
    type_name: str | None = None  # referenced entity type for ref columns


@dataclass
class ETableRow:
    """One row: a primary entity, its attributes, and its reference cells."""

    node_id: int
    attributes: dict[str, Any]
    cells: dict[str, list[EntityRef]] = field(default_factory=dict)

    def refs(self, column_key: str) -> list[EntityRef]:
        return self.cells.get(column_key, [])

    def ref_count(self, column_key: str) -> int:
        return len(self.cells.get(column_key, []))


class ETable:
    """A materialized enriched table plus light presentation state.

    Presentation state (sort order, hidden columns) lives here because the
    paper's Sort and Hide actions operate on the current result without
    changing the query pattern.
    """

    def __init__(
        self,
        pattern: QueryPattern,
        columns: list[ColumnSpec],
        rows: list[ETableRow],
        graph: InstanceGraph,
    ) -> None:
        self.pattern = pattern
        self.columns = columns
        self.rows = rows
        self.graph = graph
        self.hidden_columns: set[str] = set()
        self._by_key: dict[str, ColumnSpec] = {}
        for column in columns:
            # Keys are unique across kinds by construction: attribute names,
            # pattern keys, and edge-type names never collide (edge types
            # embed '->' and pattern keys are type names or 'Type#n').
            self._by_key[column.key] = column

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    @property
    def primary_type(self) -> str:
        return self.pattern.primary.type_name

    def column(self, key: str) -> ColumnSpec:
        try:
            return self._by_key[key]
        except KeyError:
            raise InvalidAction(f"no ETable column with key {key!r}") from None

    def column_by_display(self, display: str) -> ColumnSpec:
        """Find a column by its header text (what a user clicks on).

        When a participating column and an auto-hidden neighbor column share
        a title (they present the same relationship), the visible one wins;
        among equally visible matches the participating column wins — it is
        the one the pattern actually joins.
        """
        matches = [c for c in self.columns if c.display == display]
        if not matches:
            raise InvalidAction(f"no ETable column titled {display!r}")
        if len(matches) == 1:
            return matches[0]
        visible = [c for c in matches if c.key not in self.hidden_columns]
        if len(visible) == 1:
            return visible[0]
        pool = visible or matches
        participating = [c for c in pool if c.kind is ColumnKind.PARTICIPATING]
        if len(participating) == 1:
            return participating[0]
        raise InvalidAction(f"column title {display!r} is ambiguous; use its key")

    def visible_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.key not in self.hidden_columns]

    def base_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.kind is ColumnKind.BASE]

    def participating_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.kind is ColumnKind.PARTICIPATING]

    def neighbor_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.kind is ColumnKind.NEIGHBOR]

    def row(self, index: int) -> ETableRow:
        try:
            return self.rows[index]
        except IndexError:
            raise InvalidAction(
                f"row index {index} out of range (0..{len(self.rows) - 1})"
            ) from None

    def row_for_node(self, node_id: int) -> ETableRow:
        """The row of primary node ``node_id``. A scan: callers append,
        sort and edit rows freely, and no hot path looks rows up."""
        for row in self.rows:
            if row.node_id == node_id:
                return row
        raise InvalidAction(f"no ETable row for node id {node_id}")

    def find_row_by_attribute(self, attribute: str, value: Any) -> ETableRow:
        """First row in display order whose base attribute equals
        ``value`` (test helper and the programmatic stand-in for 'the row
        the user is looking at')."""
        for row in self.rows:
            if row.attributes.get(attribute) == value:
                return row
        raise InvalidAction(f"no row with {attribute!r} == {value!r}")

    def node_of(self, row: ETableRow) -> Node:
        return self.graph.node(row.node_id)

    # ------------------------------------------------------------------
    # Presentation operations (Sort / Hide — Section 6.1 "additional")
    # ------------------------------------------------------------------
    def sort(self, column_key: str, descending: bool = False) -> None:
        """Sort rows in place by a base value or by reference count.

        Sorting an entity-reference column orders by its count — the
        paper's history shows exactly this ("Sort table by # of Papers
        (referenced)", Figure 1).
        """
        column = self.column(column_key)
        if column.kind is ColumnKind.BASE:
            key: Callable[[ETableRow], Any] = lambda row: _sort_key(
                row.attributes.get(column.key)
            )
        else:
            key = lambda row: row.ref_count(column.key)
        self.rows.sort(key=key, reverse=descending)

    def hide_column(self, column_key: str) -> None:
        self.column(column_key)
        self.hidden_columns.add(column_key)

    def show_column(self, column_key: str) -> None:
        self.hidden_columns.discard(column_key)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def page_rows(self, offset: int = 0,
                  limit: int | None = None) -> list[ETableRow]:
        """One page of rows in display order (the interface paginates;
        matching is complete, so ``len(self)`` stays the true row count).

        Used by the wire protocol's paginated serializer; offsets past the
        end return an empty page rather than raising, like any cursor.
        """
        if offset < 0:
            raise InvalidAction(f"page offset must be >= 0, got {offset}")
        if limit is not None and limit < 0:
            raise InvalidAction(f"page limit must be >= 0, got {limit}")
        rows = self.rows[offset:]
        if limit is not None:
            rows = rows[:limit]
        return rows

    def to_dicts(self, labels: bool = True) -> list[dict[str, Any]]:
        """Rows as plain dictionaries; reference cells become label lists."""
        out: list[dict[str, Any]] = []
        for row in self.rows:
            item: dict[str, Any] = dict(row.attributes)
            for column in self.columns:
                if column.kind is ColumnKind.BASE:
                    continue
                refs = row.refs(column.key)
                item[column.display] = (
                    [ref.label for ref in refs]
                    if labels
                    else [ref.node_id for ref in refs]
                )
            out.append(item)
        return out


def _sort_key(value: Any) -> tuple[int, str, Any]:
    """A total order over heterogeneous cell values.

    Numbers sort before strings (each kind compared within itself), NULLs
    sort last — so a mixed-type base column never raises ``TypeError`` on
    an int/str comparison, and homogeneous columns keep their old order.
    """
    if value is None:
        return (2, "", 0)
    if isinstance(value, bool):
        return (0, "", int(value))
    if isinstance(value, (int, float)):
        return (0, "", value)
    return (1, str(value), 0)
