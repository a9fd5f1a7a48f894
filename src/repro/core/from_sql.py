"""SQL join query → ETable query (the Section 8 expressiveness argument).

The paper shows that any FK–PK join query over a schema satisfying the
Appendix A assumptions translates into an equivalent ETable query in three
steps:

1. the FROM list and join conditions become node types joined by edge types
   (junction and multivalued-attribute tables fold into edges/value nodes);
2. the WHERE selection conditions attach to the matching node types;
3. the GROUP BY attribute (if any) picks the primary node type — otherwise
   one is chosen arbitrarily (we pick the first entity in the FROM list).

The resulting pattern can be executed on the typed graph database and —
modulo presentation — returns the same information as the SQL query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import TranslationError
from repro.relational.database import Database
from repro.relational.sql.ast_nodes import (
    AndNode,
    BinaryNode,
    ColumnNode,
    ExprNode,
    InListNode,
    LikeNode,
    LiteralNode,
    NotNode,
    OrNode,
    SelectStatement,
)
from repro.relational.sql.parser import parse_select, split_conjuncts
from repro.tgm.conditions import (
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    Condition,
    NotCondition,
    OrCondition,
)
from repro.tgm.schema_graph import SchemaGraph
from repro.translate.schema_translator import TranslationMap
from repro.core.query_pattern import PatternEdge, PatternNode, QueryPattern


@dataclass
class _EdgeIndex:
    """Reverse lookups from relational artifacts to schema edge types."""

    fk: dict[tuple[str, str], str] = field(default_factory=dict)
    junction: dict[str, dict[str, str]] = field(default_factory=dict)
    attr_table: dict[str, dict[str, str]] = field(default_factory=dict)

    @classmethod
    def build(cls, mapping: TranslationMap) -> "_EdgeIndex":
        index = cls()
        for name, entry in mapping.edges.items():
            if entry.kind == "fk_forward":
                index.fk[(entry.data["owner_table"], entry.data["fk_column"])] = name
            elif entry.kind == "mn_forward":
                index.junction[entry.data["junction_table"]] = {
                    "edge": name, **entry.data
                }
            elif entry.kind == "mv_forward":
                index.attr_table[entry.data["attr_table"]] = {
                    "edge": name, **entry.data
                }
        return index


def sql_to_pattern(
    sql: str,
    database: Database,
    schema: SchemaGraph,
    mapping: TranslationMap,
) -> QueryPattern:
    """Translate one FK–PK join SELECT into an ETable query pattern."""
    statement = parse_select(sql)
    return statement_to_pattern(statement, database, schema, mapping)


def statement_to_pattern(
    statement: SelectStatement,
    database: Database,
    schema: SchemaGraph,
    mapping: TranslationMap,
) -> QueryPattern:
    index = _EdgeIndex.build(mapping)
    refs = list(statement.from_tables) + [j.table for j in statement.joins]

    # Classify every FROM item.
    alias_to_table: dict[str, str] = {}
    entity_aliases: list[str] = []
    junction_aliases: list[str] = []
    attr_aliases: list[str] = []
    for ref in refs:
        alias = ref.qualifier
        if alias in alias_to_table:
            raise TranslationError(f"duplicate alias {alias!r}")
        alias_to_table[alias] = ref.name
        if ref.name in mapping.entity_table_to_node_type:
            entity_aliases.append(alias)
        elif ref.name in index.junction:
            junction_aliases.append(alias)
        elif ref.name in index.attr_table:
            attr_aliases.append(alias)
        else:
            raise TranslationError(
                f"table {ref.name!r} is not part of the translated schema"
            )
    if not entity_aliases and not attr_aliases:
        raise TranslationError("the query references no entity relations")

    conjuncts: list[ExprNode] = split_conjuncts(statement.where)
    for join in statement.joins:
        conjuncts.extend(split_conjuncts(join.condition))

    equalities: list[tuple[str, str, str, str]] = []  # (alias_a, col_a, alias_b, col_b)
    residual: list[ExprNode] = []
    for conjunct in conjuncts:
        pair = _column_equality(conjunct)
        if pair is not None:
            left, right = pair
            equalities.append((left.qualifier or _sole(alias_to_table, left),
                               left.name,
                               right.qualifier or _sole(alias_to_table, right),
                               right.name))
        else:
            residual.append(conjunct)

    builder = _PatternBuilder(alias_to_table, mapping, index, database)
    for alias in entity_aliases:
        builder.ensure_entity_node(alias)
    for alias, column, other_alias, other_column in _fk_equalities(
        equalities, alias_to_table, junction_aliases, attr_aliases, index
    ):
        builder.link_fk(alias, column, other_alias, other_column)
    for alias in junction_aliases:
        builder.link_junction(alias, equalities)
    for alias in attr_aliases:
        builder.link_attr_table(alias, equalities)

    for conjunct in residual:
        alias, condition = _convert_condition(conjunct, alias_to_table, builder)
        builder.add_condition(alias, condition)

    primary = _choose_primary(statement, builder, entity_aliases, attr_aliases)
    return builder.build(primary)


def _sole(alias_to_table: dict[str, str], column: ColumnNode) -> str:
    raise TranslationError(
        f"column {column.name!r} must be table-qualified in a join query"
    )


def _column_equality(node: ExprNode) -> tuple[ColumnNode, ColumnNode] | None:
    if (
        isinstance(node, BinaryNode)
        and node.op == "="
        and isinstance(node.left, ColumnNode)
        and isinstance(node.right, ColumnNode)
    ):
        return node.left, node.right
    return None


def _fk_equalities(
    equalities: list[tuple[str, str, str, str]],
    alias_to_table: dict[str, str],
    junction_aliases: list[str],
    attr_aliases: list[str],
    index: _EdgeIndex,
) -> list[tuple[str, str, str, str]]:
    """Equality pairs that are plain FK joins between two entity aliases."""
    special = set(junction_aliases) | set(attr_aliases)
    out = []
    for alias_a, col_a, alias_b, col_b in equalities:
        if alias_a in special or alias_b in special:
            continue
        out.append((alias_a, col_a, alias_b, col_b))
    return out


class _PatternBuilder:
    def __init__(
        self,
        alias_to_table: dict[str, str],
        mapping: TranslationMap,
        index: _EdgeIndex,
        database: Database,
    ) -> None:
        self.alias_to_table = alias_to_table
        self.mapping = mapping
        self.index = index
        self.database = database
        self.nodes: dict[str, PatternNode] = {}
        self.edges: list[PatternEdge] = []
        self.conditions: dict[str, list[Condition]] = {}

    def ensure_entity_node(self, alias: str) -> None:
        if alias in self.nodes:
            return
        table = self.alias_to_table[alias]
        type_name = self.mapping.entity_table_to_node_type[table]
        self.nodes[alias] = PatternNode(key=alias, type_name=type_name)
        self.conditions.setdefault(alias, [])

    def link_fk(
        self, alias_a: str, col_a: str, alias_b: str, col_b: str
    ) -> None:
        table_a = self.alias_to_table[alias_a]
        table_b = self.alias_to_table[alias_b]
        if (table_a, col_a) in self.index.fk:
            owner_alias, ref_alias = alias_a, alias_b
            edge = self.index.fk[(table_a, col_a)]
        elif (table_b, col_b) in self.index.fk:
            owner_alias, ref_alias = alias_b, alias_a
            edge = self.index.fk[(table_b, col_b)]
        else:
            raise TranslationError(
                f"equality {alias_a}.{col_a} = {alias_b}.{col_b} does not "
                "follow a declared foreign key"
            )
        self.edges.append(
            PatternEdge(edge_type=edge, source_key=owner_alias,
                        target_key=ref_alias)
        )

    def link_junction(
        self, alias: str, equalities: list[tuple[str, str, str, str]]
    ) -> None:
        info = self.index.junction[self.alias_to_table[alias]]
        source_alias = target_alias = None
        for alias_a, col_a, alias_b, col_b in equalities:
            for junction_alias, junction_col, other_alias in (
                (alias_a, col_a, alias_b), (alias_b, col_b, alias_a)
            ):
                if junction_alias != alias:
                    continue
                if junction_col == info["source_fk"]:
                    source_alias = other_alias
                elif junction_col == info["target_fk"]:
                    target_alias = other_alias
        if source_alias is None or target_alias is None:
            raise TranslationError(
                f"junction {alias!r} must join both of its foreign keys"
            )
        self.edges.append(
            PatternEdge(
                edge_type=info["edge"],
                source_key=source_alias,
                target_key=target_alias,
            )
        )

    def link_attr_table(
        self, alias: str, equalities: list[tuple[str, str, str, str]]
    ) -> None:
        info = self.index.attr_table[self.alias_to_table[alias]]
        owner_alias = None
        for alias_a, col_a, alias_b, col_b in equalities:
            for attr_alias, attr_col, other_alias in (
                (alias_a, col_a, alias_b), (alias_b, col_b, alias_a)
            ):
                if attr_alias == alias and attr_col == info["owner_fk"]:
                    owner_alias = other_alias
        if owner_alias is None:
            raise TranslationError(
                f"multivalued table {alias!r} must join its owner foreign key"
            )
        type_name = f"{self.alias_to_table[alias]}: {info['value_column']}"
        self.nodes[alias] = PatternNode(key=alias, type_name=type_name)
        self.conditions.setdefault(alias, [])
        self.edges.append(
            PatternEdge(
                edge_type=info["edge"],
                source_key=owner_alias,
                target_key=alias,
            )
        )

    def add_condition(self, alias: str, condition: Condition) -> None:
        if alias not in self.nodes:
            raise TranslationError(
                f"condition references alias {alias!r} which is not an "
                "entity or multivalued relation"
            )
        self.conditions[alias].append(condition)

    def attr_value_column(self, alias: str) -> str | None:
        table = self.alias_to_table.get(alias)
        info = self.index.attr_table.get(table or "")
        return info["value_column"] if info else None

    def build(self, primary: str) -> QueryPattern:
        nodes = tuple(
            PatternNode(
                key=node.key,
                type_name=node.type_name,
                conditions=tuple(self.conditions.get(node.key, [])),
            )
            for node in self.nodes.values()
        )
        return QueryPattern(
            primary_key=primary, nodes=nodes, edges=tuple(self.edges)
        )


def _convert_condition(
    node: ExprNode,
    alias_to_table: dict[str, str],
    builder: _PatternBuilder,
) -> tuple[str, Condition]:
    """AST condition → (alias, TGM condition)."""
    if isinstance(node, BinaryNode):
        column, value = _column_and_literal(node)
        alias = _require_alias(column, alias_to_table)
        attribute = _attribute_for(builder, alias, column.name)
        return alias, AttributeCompare(attribute, node.op, value)
    if isinstance(node, LikeNode):
        if not isinstance(node.operand, ColumnNode):
            raise TranslationError("LIKE must apply to a column")
        alias = _require_alias(node.operand, alias_to_table)
        attribute = _attribute_for(builder, alias, node.operand.name)
        return alias, AttributeLike(attribute, node.pattern, node.negate)
    if isinstance(node, InListNode):
        if not isinstance(node.operand, ColumnNode):
            raise TranslationError("IN must apply to a column")
        alias = _require_alias(node.operand, alias_to_table)
        attribute = _attribute_for(builder, alias, node.operand.name)
        condition: Condition = AttributeIn(attribute, node.values)
        if node.negate:
            condition = NotCondition(condition)
        return alias, condition
    if isinstance(node, NotNode):
        alias, inner = _convert_condition(node.operand, alias_to_table, builder)
        return alias, NotCondition(inner)
    if isinstance(node, (OrNode, AndNode)):
        converted = [
            _convert_condition(operand, alias_to_table, builder)
            for operand in node.operands
        ]
        aliases = {alias for alias, _ in converted}
        if len(aliases) != 1:
            raise TranslationError(
                "OR/AND groups must reference a single relation to map onto "
                "one node type's conditions"
            )
        alias = next(iter(aliases))
        if isinstance(node, OrNode):
            return alias, OrCondition(tuple(c for _, c in converted))
        # Plain conjunction: fold into one And via multiple conditions.
        from repro.tgm.conditions import AndCondition

        return alias, AndCondition(tuple(c for _, c in converted))
    raise TranslationError(
        f"cannot translate condition {type(node).__name__} to an ETable query"
    )


def _column_and_literal(node: BinaryNode) -> tuple[ColumnNode, Any]:
    if isinstance(node.left, ColumnNode) and isinstance(node.right, LiteralNode):
        return node.left, node.right.value
    if isinstance(node.right, ColumnNode) and isinstance(node.left, LiteralNode):
        # Normalize ``literal op column`` by flipping the comparison.
        flips = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
        flipped = BinaryNode(flips[node.op], node.right, node.left)
        return flipped.left, node.left.value  # type: ignore[union-attr]
    raise TranslationError(
        "selection conditions must compare a column with a literal"
    )


def _require_alias(column: ColumnNode, alias_to_table: dict[str, str]) -> str:
    if column.qualifier is None:
        matches = [
            alias
            for alias in alias_to_table
            if True  # unqualified columns are resolved by the caller's schema
        ]
        raise TranslationError(
            f"column {column.name!r} must be table-qualified "
            f"(candidates: {sorted(matches)!r})"
        )
    return column.qualifier


def _attribute_for(builder: _PatternBuilder, alias: str, column: str) -> str:
    """Multivalued aliases expose their value column as the node attribute."""
    value_column = builder.attr_value_column(alias)
    if value_column is not None and column == value_column:
        return value_column
    return column


def _choose_primary(
    statement: SelectStatement,
    builder: _PatternBuilder,
    entity_aliases: list[str],
    attr_aliases: list[str],
) -> str:
    if statement.group_by:
        expr = statement.group_by[0]
        if isinstance(expr, ColumnNode) and expr.qualifier in builder.nodes:
            return expr.qualifier
        raise TranslationError(
            "GROUP BY must reference a joined relation's key to choose the "
            "primary node type"
        )
    for alias in entity_aliases + attr_aliases:
        if alias in builder.nodes:
            return alias
    raise TranslationError("no candidate primary node type")  # pragma: no cover
