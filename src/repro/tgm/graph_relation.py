"""The graph relation algebra of Section 5.4.1.

A *graph relation* is like a relation whose attribute domains are node sets:
each attribute corresponds to a node type (more precisely, to one occurrence
of a node type in a query pattern — a *pattern node*), and each tuple is a
list of node ids. Three operators are defined: selection ``σ``, join ``*``
(over an edge type), and projection ``Π``. Instance matching (Definition 4)
composes selections and joins; format transformation uses projection.

Storage is *columnar*: tuples live as parallel per-attribute lists of node
ids, so operators touch only the columns they need and the planner's delta
joins append to flat lists instead of re-building row tuples. The row-wise
``tuples`` view is materialized lazily for callers that want it.

Arity validation happens once, at construction boundaries (the public
``GraphRelation(...)`` constructor): operator outputs are built through the
internal fast constructors (:meth:`GraphRelation.from_columns` /
:meth:`GraphRelation.from_rows`) whose shapes are correct by construction,
so a query plan never re-validates the same tuples on every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import TgmError
from repro.tgm.conditions import Condition
from repro.tgm.instance_graph import InstanceGraph


@dataclass(frozen=True)
class GraphAttribute:
    """One attribute of a graph relation: a keyed occurrence of a node type.

    ``key`` disambiguates multiple occurrences of the same node type in one
    pattern (e.g. a self-join on Papers via citations).
    """

    key: str
    type_name: str

    def __str__(self) -> str:
        if self.key == self.type_name:
            return self.type_name
        return f"{self.key}:{self.type_name}"


class GraphRelation:
    """An ordered set of tuples of node ids over :class:`GraphAttribute` s."""

    __slots__ = ("attributes", "_columns", "_tuples")

    def __init__(
        self,
        attributes: Sequence[GraphAttribute],
        tuples: Iterable[tuple[int, ...]] = (),
    ) -> None:
        self.attributes = list(attributes)
        keys = [attribute.key for attribute in self.attributes]
        if len(set(keys)) != len(keys):
            raise TgmError(f"duplicate graph-relation attribute keys in {keys!r}")
        rows = [tuple(row) for row in tuples]
        arity = len(self.attributes)
        for row in rows:
            if len(row) != arity:
                raise TgmError(
                    f"tuple arity {len(row)} != attribute arity {arity}"
                )
        self._tuples: list[tuple[int, ...]] | None = rows
        if rows:
            self._columns: list[list[int]] = [list(col) for col in zip(*rows)]
        else:
            self._columns = [[] for _ in self.attributes]

    # ------------------------------------------------------------------
    # Fast internal constructors (operator outputs; no per-row validation)
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        attributes: Sequence[GraphAttribute],
        columns: Sequence[list[int]],
    ) -> "GraphRelation":
        """Wrap parallel columns without re-validating every row.

        The caller guarantees the columns are equal-length and aligned with
        ``attributes`` — true for every algebra operator, whose output shape
        is correct by construction.
        """
        relation = cls.__new__(cls)
        relation.attributes = list(attributes)
        relation._columns = list(columns)
        relation._tuples = None
        return relation

    @classmethod
    def from_rows(
        cls,
        attributes: Sequence[GraphAttribute],
        rows: list[tuple[int, ...]],
    ) -> "GraphRelation":
        """Wrap already-valid row tuples without re-validating arity."""
        relation = cls.__new__(cls)
        relation.attributes = list(attributes)
        relation._tuples = rows
        if rows:
            relation._columns = [list(col) for col in zip(*rows)]
        else:
            relation._columns = [[] for _ in relation.attributes]
        return relation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._columns:
            return len(self._columns[0])
        return len(self._tuples or ())

    @property
    def tuples(self) -> list[tuple[int, ...]]:
        """Row-wise view, materialized lazily from the columns."""
        if self._tuples is None:
            self._tuples = list(zip(*self._columns)) if self._columns else []
        return self._tuples

    def iter_rows(self) -> Iterator[tuple[int, ...]]:
        """Stream row tuples without caching the materialized list."""
        if self._tuples is not None:
            return iter(self._tuples)
        return zip(*self._columns)

    @property
    def keys(self) -> list[str]:
        return [attribute.key for attribute in self.attributes]

    def position(self, key: str) -> int:
        for index, attribute in enumerate(self.attributes):
            if attribute.key == key:
                return index
        raise TgmError(f"no graph-relation attribute with key {key!r}")

    def attribute(self, key: str) -> GraphAttribute:
        return self.attributes[self.position(key)]

    def column(self, key: str) -> list[int]:
        return list(self._columns[self.position(key)])

    def columns_view(self) -> list[list[int]]:
        """The internal parallel columns; callers must not mutate them."""
        return self._columns

    def distinct_column(self, key: str) -> list[int]:
        """Distinct node ids of one attribute, first-appearance order."""
        return list(dict.fromkeys(self._columns[self.position(key)]))

    def to_table(self, graph: InstanceGraph) -> list[dict[str, Any]]:
        """Render tuples as label dictionaries (used by Figure 8's bench)."""
        out: list[dict[str, Any]] = []
        for row in self.iter_rows():
            item: dict[str, Any] = {}
            for attribute, node_id in zip(self.attributes, row):
                item[attribute.key] = graph.node(node_id).label(graph.schema)
            out.append(item)
        return out


# ----------------------------------------------------------------------
# Algebra operators
# ----------------------------------------------------------------------
def base_relation(
    graph: InstanceGraph, type_name: str, key: str | None = None
) -> GraphRelation:
    """The base graph relation of one node type: one single-attribute tuple
    per node instance."""
    attribute = GraphAttribute(key or type_name, type_name)
    return GraphRelation.from_columns(
        [attribute], [list(graph.node_ids_of_type(type_name))]
    )


def selection(
    relation: GraphRelation,
    key: str,
    condition: Condition,
    graph: InstanceGraph,
) -> GraphRelation:
    """``σ_Ci(R)``: keep tuples whose ``key`` node satisfies the condition.

    Evaluates ``Condition.matches`` once per row: this is the reference
    matcher's selection, the spec that the planner's set-at-a-time
    evaluation (``repro.core.planner.condition_ids``) must reproduce.
    """
    position = relation.position(key)
    target = relation.columns_view()[position]
    kept = [
        index
        for index, node_id in enumerate(target)
        if condition.matches(graph.node(node_id), graph)
    ]
    columns = [
        [column[index] for index in kept] for column in relation.columns_view()
    ]
    return GraphRelation.from_columns(list(relation.attributes), columns)


def join(
    left: GraphRelation,
    right: GraphRelation,
    edge_type_name: str,
    left_key: str,
    right_key: str,
    graph: InstanceGraph,
) -> GraphRelation:
    """``R1 *ρ R2``: concatenate tuple pairs connected by a ``ρ`` edge.

    ``left_key``/``right_key`` locate the source and target attributes. The
    join probes the instance graph's adjacency index from the left side and
    hashes the right side by its target attribute, so cost is
    O(|left| · avg-degree + |right|).
    """
    edge_type = graph.schema.edge_type(edge_type_name)
    left_position = left.position(left_key)
    right_position = right.position(right_key)
    left_attr = left.attributes[left_position]
    right_attr = right.attributes[right_position]
    if left_attr.type_name != edge_type.source:
        raise TgmError(
            f"join via {edge_type_name!r}: left attribute {left_key!r} has type "
            f"{left_attr.type_name!r}, edge expects {edge_type.source!r}"
        )
    if right_attr.type_name != edge_type.target:
        raise TgmError(
            f"join via {edge_type_name!r}: right attribute {right_key!r} has type "
            f"{right_attr.type_name!r}, edge expects {edge_type.target!r}"
        )

    right_columns = right.columns_view()
    by_target: dict[int, list[int]] = {}
    for index, node_id in enumerate(right_columns[right_position]):
        by_target.setdefault(node_id, []).append(index)

    left_columns = left.columns_view()
    left_width = len(left_columns)
    right_width = len(right_columns)
    out: list[list[int]] = [[] for _ in range(left_width + right_width)]
    left_source = left_columns[left_position]
    for left_index in range(len(left)):
        source_id = left_source[left_index]
        for neighbor_id in graph.neighbors_view(source_id, edge_type_name):
            for right_index in by_target.get(neighbor_id, ()):
                for c in range(left_width):
                    out[c].append(left_columns[c][left_index])
                for c in range(right_width):
                    out[left_width + c].append(right_columns[c][right_index])
    attributes = list(left.attributes) + list(right.attributes)
    return GraphRelation.from_columns(attributes, out)


def projection(relation: GraphRelation, keys: Sequence[str]) -> GraphRelation:
    """``Π``: keep only ``keys`` attributes; duplicate tuples are removed."""
    positions = [relation.position(key) for key in keys]
    attributes = [relation.attributes[position] for position in positions]
    columns = relation.columns_view()
    seen: set[tuple[int, ...]] = set()
    out: list[list[int]] = [[] for _ in positions]
    for index in range(len(relation)):
        projected = tuple(columns[position][index] for position in positions)
        if projected in seen:
            continue
        seen.add(projected)
        for c, value in enumerate(projected):
            out[c].append(value)
    return GraphRelation.from_columns(attributes, out)
