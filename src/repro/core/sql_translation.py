"""SQL translation of ETable queries (Section 8).

Every ETable query maps to the paper's general SQL pattern::

    SELECT τa.*, ent-list(t1), ent-list(t2), ...
    FROM t1, t2, ...
    WHERE <join conditions> AND C1 AND C2 AND ...
    GROUP BY τa;

This module emits that SQL over the *original* relational schema using the
:class:`~repro.translate.schema_translator.TranslationMap` produced at
translation time, and implements the reverse direction — the step-by-step
translation of an FK–PK join query into an equivalent ETable query — which
is the paper's expressiveness argument.

Binding rules per node-type category (the paper leaves these implicit):

* entity nodes get a table alias; their instance key is the primary key;
* multivalued nodes get an alias over the attribute table; their key is the
  value column (joins to an owner add ``alias.owner_fk = owner.pk``);
* categorical nodes get *no* alias of their own — they bind to the owning
  entity alias's column (so no join blow-up), except when they are the
  pattern root, where they bind to their first child's alias or, if
  childless, to a fresh alias over the owner table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import EtableError, TranslationError
from repro.tgm.conditions import (
    AndCondition,
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    Condition,
    LabelLike,
    NeighborSatisfies,
    NodeIn,
    NodeIs,
    NotCondition,
    OrCondition,
)
from repro.tgm.instance_graph import InstanceGraph
from repro.tgm.schema_graph import NodeTypeCategory, SchemaGraph
from repro.translate.schema_translator import TranslationMap
from repro.core.query_pattern import PatternEdge, PatternNode, QueryPattern


@dataclass
class _Binding:
    key: str
    category: NodeTypeCategory
    alias: str | None
    key_expr: str | None  # None only while a root categorical is deferred
    # Multivalued bookkeeping: the attribute-table alias that may serve one
    # reverse join for free (the root case).
    reusable_attr_alias: str | None = None


@dataclass
class SqlTranslation:
    """The emitted SQL plus the metadata needed to interpret its output."""

    sql: str
    primary_key_alias: str
    participating_aliases: dict[str, str]  # pattern key -> output column name
    from_items: list[tuple[str, str]]
    conditions: list[str]
    bindings: dict[str, "_Binding"] = field(repr=False, default_factory=dict)


class _Translator:
    def __init__(
        self,
        pattern: QueryPattern,
        schema: SchemaGraph,
        mapping: TranslationMap,
        graph: InstanceGraph | None = None,
    ) -> None:
        self.pattern = pattern
        self.schema = schema
        self.mapping = mapping
        self.graph = graph
        self.bindings: dict[str, _Binding] = {}
        self.from_items: list[tuple[str, str]] = []  # (table, alias)
        self.conditions: list[str] = []
        self._alias_counter = 0

    # ------------------------------------------------------------------
    def fresh_alias(self, prefix: str = "t") -> str:
        self._alias_counter += 1
        return f"{prefix}{self._alias_counter}"

    def add_table(self, table: str) -> str:
        alias = self.fresh_alias()
        self.from_items.append((table, alias))
        return alias

    def node_category(self, key: str) -> NodeTypeCategory:
        node = self.pattern.node(key)
        return self.schema.node_type(node.type_name).category

    def node_mapping(self, key: str):
        node = self.pattern.node(key)
        return self.mapping.nodes[node.type_name]

    # ------------------------------------------------------------------
    def translate(self) -> SqlTranslation:
        self.pattern.validate(self.schema)
        order = self.pattern.traversal_order()
        for key, edge in order:
            if edge is None:
                self._bind_root(key)
            else:
                self._connect(key, edge)
        for key, _edge in order:
            self._render_node_conditions(key)

        primary = self.bindings[self.pattern.primary_key]
        if primary.key_expr is None:  # pragma: no cover - deferred root resolved
            raise EtableError("primary binding was never resolved")
        select_items = [f"{primary.key_expr} AS etable_key"]
        if primary.category is NodeTypeCategory.ENTITY and primary.alias:
            select_items.append(f"{primary.alias}.*")
        participating_aliases: dict[str, str] = {}
        for index, key in enumerate(self.pattern.participating_keys, start=1):
            binding = self.bindings[key]
            output = f"refs_{index}"
            select_items.append(f"ENT_LIST({binding.key_expr}) AS {output}")
            participating_aliases[key] = output

        sql_lines = [f"SELECT {', '.join(select_items)}"]
        from_clause = ", ".join(
            f"{table} {alias}" for table, alias in self.from_items
        )
        sql_lines.append(f"FROM {from_clause}")
        if self.conditions:
            sql_lines.append(f"WHERE {' AND '.join(self.conditions)}")
        sql_lines.append(f"GROUP BY {primary.key_expr}")
        return SqlTranslation(
            sql="\n".join(sql_lines),
            primary_key_alias="etable_key",
            participating_aliases=participating_aliases,
            from_items=list(self.from_items),
            conditions=list(self.conditions),
            bindings=dict(self.bindings),
        )

    # ------------------------------------------------------------------
    # Binding construction
    # ------------------------------------------------------------------
    def _bind_root(self, key: str) -> None:
        category = self.node_category(key)
        node_mapping = self.node_mapping(key)
        if category is NodeTypeCategory.ENTITY:
            alias = self.add_table(node_mapping.table)
            self.bindings[key] = _Binding(
                key, category, alias, f"{alias}.{node_mapping.key_column}"
            )
        elif category is NodeTypeCategory.MULTIVALUED_ATTRIBUTE:
            alias = self.add_table(node_mapping.table)
            self.bindings[key] = _Binding(
                key,
                category,
                alias,
                f"{alias}.{node_mapping.key_column}",
                reusable_attr_alias=alias,
            )
        else:  # categorical root
            children = self.pattern.children_of(key, parent=None)
            if children:
                # Defer: the first child's alias will supply the column.
                self.bindings[key] = _Binding(key, category, None, None)
            else:
                alias = self.add_table(node_mapping.table)
                self.bindings[key] = _Binding(
                    key, category, alias, f"{alias}.{node_mapping.key_column}"
                )

    def _connect(self, new_key: str, edge: PatternEdge) -> None:
        mapping = self.mapping.edges.get(edge.edge_type)
        if mapping is None:
            raise TranslationError(
                f"edge type {edge.edge_type!r} has no relational mapping"
            )
        kind = mapping.kind
        data = mapping.data
        known_key = (
            edge.source_key if edge.target_key == new_key else edge.target_key
        )
        known = self.bindings[known_key]

        if kind in ("fk_forward", "fk_reverse"):
            owner_on_source = kind == "fk_forward"
            owner_key = edge.source_key if owner_on_source else edge.target_key
            ref_key = edge.target_key if owner_on_source else edge.source_key
            new_mapping = self.node_mapping(new_key)
            alias = self.add_table(new_mapping.table)
            self.bindings[new_key] = _Binding(
                new_key,
                NodeTypeCategory.ENTITY,
                alias,
                f"{alias}.{new_mapping.key_column}",
            )
            owner_alias = self.bindings[owner_key].alias
            ref_alias = self.bindings[ref_key].alias
            self.conditions.append(
                f"{owner_alias}.{data['fk_column']} = "
                f"{ref_alias}.{data['ref_pk']}"
            )
            return

        if kind in ("mn_forward", "mn_reverse"):
            # The schema edge's source plays the junction's source_fk role
            # for mn_forward and the target_fk role for mn_reverse.
            new_mapping = self.node_mapping(new_key)
            alias = self.add_table(new_mapping.table)
            self.bindings[new_key] = _Binding(
                new_key,
                NodeTypeCategory.ENTITY,
                alias,
                f"{alias}.{new_mapping.key_column}",
            )
            junction_alias = self.add_table(data["junction_table"])
            if kind == "mn_forward":
                source_key, target_key = edge.source_key, edge.target_key
            else:
                source_key, target_key = edge.target_key, edge.source_key
            source_alias = self.bindings[source_key].alias
            target_alias = self.bindings[target_key].alias
            self.conditions.append(
                f"{junction_alias}.{data['source_fk']} = "
                f"{source_alias}.{data['source_pk']}"
            )
            self.conditions.append(
                f"{junction_alias}.{data['target_fk']} = "
                f"{target_alias}.{data['target_pk']}"
            )
            return

        if kind in ("mv_forward", "mv_reverse"):
            # Endpoints: owner entity O, multivalued value node V. The edge
            # may be traversed from either end.
            value_endpoint = (
                edge.target_key if kind == "mv_forward" else edge.source_key
            )
            if new_key == value_endpoint:
                # Known owner entity -> new multivalued node.
                alias = self.add_table(data["attr_table"])
                self.bindings[new_key] = _Binding(
                    new_key,
                    NodeTypeCategory.MULTIVALUED_ATTRIBUTE,
                    alias,
                    f"{alias}.{data['value_column']}",
                )
                self.conditions.append(
                    f"{alias}.{data['owner_fk']} = "
                    f"{known.alias}.{data['owner_pk']}"
                )
                return
            # Known multivalued node -> new owner entity.
            new_mapping = self.node_mapping(new_key)
            entity_alias = self.add_table(new_mapping.table)
            self.bindings[new_key] = _Binding(
                new_key,
                NodeTypeCategory.ENTITY,
                entity_alias,
                f"{entity_alias}.{new_mapping.key_column}",
            )
            if known.reusable_attr_alias is not None:
                attr_alias = known.reusable_attr_alias
                known.reusable_attr_alias = None
            else:
                attr_alias = self.add_table(data["attr_table"])
                self.conditions.append(
                    f"{attr_alias}.{data['value_column']} = {known.key_expr}"
                )
            self.conditions.append(
                f"{attr_alias}.{data['owner_fk']} = "
                f"{entity_alias}.{new_mapping.key_column}"
            )
            return

        if kind in ("cat_forward", "cat_reverse"):
            value_endpoint = (
                edge.target_key if kind == "cat_forward" else edge.source_key
            )
            if new_key == value_endpoint:
                # Known owner entity -> new categorical node: no new alias.
                self.bindings[new_key] = _Binding(
                    new_key,
                    NodeTypeCategory.CATEGORICAL_ATTRIBUTE,
                    None,
                    f"{known.alias}.{data['column']}",
                )
                return
            # Known categorical node -> new owner entity.
            new_mapping = self.node_mapping(new_key)
            alias = self.add_table(new_mapping.table)
            self.bindings[new_key] = _Binding(
                new_key,
                NodeTypeCategory.ENTITY,
                alias,
                f"{alias}.{new_mapping.key_column}",
            )
            if known.key_expr is None:
                # Deferred categorical root: adopt this child's column.
                known.key_expr = f"{alias}.{data['column']}"
            else:
                self.conditions.append(
                    f"{alias}.{data['column']} = {known.key_expr}"
                )
            return

        raise TranslationError(f"unknown edge mapping kind {kind!r}")

    # ------------------------------------------------------------------
    # Condition rendering
    # ------------------------------------------------------------------
    def _render_node_conditions(self, key: str) -> None:
        node = self.pattern.node(key)
        binding = self.bindings[key]
        for condition in node.conditions:
            self.conditions.append(self._render_condition(condition, key, binding))

    def _render_condition(
        self, condition: Condition, key: str, binding: _Binding
    ) -> str:
        if isinstance(condition, AttributeCompare):
            return (
                f"{self._attr_expr(binding, key, condition.attribute)} "
                f"{condition.op} {_literal(condition.value)}"
            )
        if isinstance(condition, AttributeLike):
            keyword = "NOT LIKE" if condition.negate else "LIKE"
            return (
                f"{self._attr_expr(binding, key, condition.attribute)} "
                f"{keyword} {_literal(condition.pattern)}"
            )
        if isinstance(condition, LabelLike):
            node_type = self.pattern.node(key).type_name
            label = self.schema.node_type(node_type).label_attribute
            return self._render_condition(
                AttributeLike(label, condition.pattern), key, binding
            )
        if isinstance(condition, AttributeIn):
            values = ", ".join(_literal(value) for value in condition.values)
            return (
                f"{self._attr_expr(binding, key, condition.attribute)} "
                f"IN ({values})"
            )
        if isinstance(condition, NodeIs):
            if self.graph is None:
                raise TranslationError(
                    "NodeIs conditions need the instance graph to resolve "
                    "the node's relational key"
                )
            node = self.graph.node(condition.node_id)
            return f"{binding.key_expr} = {_literal(node.source_key)}"
        if isinstance(condition, NodeIn):
            if self.graph is None:
                raise TranslationError(
                    "NodeIn conditions need the instance graph to resolve "
                    "the nodes' relational keys"
                )
            if not condition.node_ids:
                return "1 = 0"
            keys = ", ".join(
                _literal(self.graph.node(node_id).source_key)
                for node_id in sorted(condition.node_ids)
            )
            return f"{binding.key_expr} IN ({keys})"
        if isinstance(condition, NeighborSatisfies):
            return self._render_neighbor_exists(condition, key, binding)
        if isinstance(condition, AndCondition):
            parts = [
                self._render_condition(operand, key, binding)
                for operand in condition.operands
            ]
            return "(" + " AND ".join(parts) + ")"
        if isinstance(condition, OrCondition):
            parts = [
                self._render_condition(operand, key, binding)
                for operand in condition.operands
            ]
            return "(" + " OR ".join(parts) + ")"
        if isinstance(condition, NotCondition):
            return f"NOT ({self._render_condition(condition.operand, key, binding)})"
        raise TranslationError(
            f"condition {type(condition).__name__} has no SQL rendering"
        )

    def _attr_expr(self, binding: _Binding, key: str, attribute: str) -> str:
        category = self.node_category(key)
        if category is NodeTypeCategory.ENTITY:
            return f"{binding.alias}.{attribute}"
        # Multivalued / categorical nodes have a single attribute: the value.
        return str(binding.key_expr)

    def _render_neighbor_exists(
        self, condition: NeighborSatisfies, key: str, binding: _Binding
    ) -> str:
        """Section 6.1: a neighbor-label filter becomes an EXISTS subquery."""
        mapping = self.mapping.edges.get(condition.edge_type)
        if mapping is None:
            raise TranslationError(
                f"edge type {condition.edge_type!r} has no relational mapping"
            )
        edge_type = self.schema.edge_type(condition.edge_type)
        sub = _Translator(
            _neighbor_probe_pattern(edge_type.target, condition.inner),
            self.schema,
            self.mapping,
            self.graph,
        )
        sub._alias_counter = self._alias_counter + 100  # avoid alias clashes
        sub._bind_root(edge_type.target)
        sub._render_node_conditions(edge_type.target)
        # Distinct endpoint keys keep a self-loop edge's two sides apart.
        correlation = correlate_pattern_edge(
            PatternEdge(condition.edge_type, "outer", "inner"),
            mapping.kind,
            mapping.data,
            "outer",
            binding,
            sub.bindings[edge_type.target],
            sub,
        )
        from_clause = ", ".join(f"{t} {a}" for t, a in sub.from_items)
        where = " AND ".join(sub.conditions + correlation)
        return f"EXISTS (SELECT 1 FROM {from_clause} WHERE {where})"


def correlate_pattern_edge(
    edge: PatternEdge,
    mapping_kind: str,
    data: dict[str, str],
    outer_key: str,
    outer_binding: _Binding,
    inner_binding: _Binding,
    sub: "_Translator",
) -> list[str]:
    """Correlation conditions tying an outer binding to a subquery binding
    across one pattern edge (used by neighbor filters' EXISTS subqueries,
    Section 6.1, and the partitioned execution strategy's semijoin EXISTS
    clauses, Section 6.2).

    ``sub`` is the subquery's translator — junction/attribute tables needed
    by the correlation are added to *its* FROM list.
    """
    def side(endpoint_key: str) -> _Binding:
        return outer_binding if endpoint_key == outer_key else inner_binding

    if mapping_kind in ("fk_forward", "fk_reverse"):
        owner_endpoint = (
            edge.source_key if mapping_kind == "fk_forward" else edge.target_key
        )
        ref_endpoint = (
            edge.target_key if mapping_kind == "fk_forward" else edge.source_key
        )
        owner = side(owner_endpoint)
        ref = side(ref_endpoint)
        return [f"{owner.alias}.{data['fk_column']} = {ref.alias}.{data['ref_pk']}"]
    if mapping_kind in ("mn_forward", "mn_reverse"):
        source_endpoint = (
            edge.source_key if mapping_kind == "mn_forward" else edge.target_key
        )
        target_endpoint = (
            edge.target_key if mapping_kind == "mn_forward" else edge.source_key
        )
        source = side(source_endpoint)
        target = side(target_endpoint)
        junction_alias = sub.add_table(data["junction_table"])
        return [
            f"{junction_alias}.{data['source_fk']} = "
            f"{source.alias}.{data['source_pk']}",
            f"{junction_alias}.{data['target_fk']} = "
            f"{target.alias}.{data['target_pk']}",
        ]
    if mapping_kind in ("mv_forward", "mv_reverse"):
        owner_endpoint = (
            edge.source_key if mapping_kind == "mv_forward" else edge.target_key
        )
        value_endpoint = (
            edge.target_key if mapping_kind == "mv_forward" else edge.source_key
        )
        owner = side(owner_endpoint)
        value = side(value_endpoint)
        if (
            value is inner_binding
            and value.alias is not None
            and value.reusable_attr_alias is not None
        ):
            # The multivalued node lives in the subquery and its root
            # attribute-table row is still unclaimed: that row can serve as
            # the correlation edge. Consume it — each attribute-table row
            # encodes exactly one owner↔value edge, so a row already used
            # for an internal subtree join must not double as the
            # correlation (it would force both owners to coincide).
            value.reusable_attr_alias = None
            return [
                f"{value.alias}.{data['owner_fk']} = "
                f"{owner.alias}.{data['owner_pk']}"
            ]
        # Otherwise bridge with a fresh attribute-table alias: one row
        # linking the value to the owner on the other side of the edge.
        bridge = sub.add_table(data["attr_table"])
        return [
            f"{bridge}.{data['value_column']} = {value.key_expr}",
            f"{bridge}.{data['owner_fk']} = {owner.alias}.{data['owner_pk']}",
        ]
    if mapping_kind in ("cat_forward", "cat_reverse"):
        owner_endpoint = (
            edge.source_key if mapping_kind == "cat_forward" else edge.target_key
        )
        value_endpoint = (
            edge.target_key if mapping_kind == "cat_forward" else edge.source_key
        )
        owner = side(owner_endpoint)
        value = side(value_endpoint)
        return [f"{owner.alias}.{data['column']} = {value.key_expr}"]
    raise TranslationError(
        f"cannot correlate across edge mapping kind {mapping_kind!r}"
    )


def _neighbor_probe_pattern(type_name: str, inner: Condition) -> QueryPattern:
    node = PatternNode(key=type_name, type_name=type_name, conditions=(inner,))
    return QueryPattern(primary_key=type_name, nodes=(node,))


def _literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


def pattern_to_sql(
    pattern: QueryPattern,
    schema: SchemaGraph,
    mapping: TranslationMap,
    graph: InstanceGraph | None = None,
) -> SqlTranslation:
    """Translate an ETable query pattern into the Section 8 SQL pattern."""
    return _Translator(pattern, schema, mapping, graph).translate()
