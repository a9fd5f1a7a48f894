"""Abstract syntax tree for the SQL grammar the parser reads.

Parser output, consumed by :mod:`repro.core.from_sql`, which turns FK–PK
join queries into ETable query patterns and rejects what it cannot
translate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class ExprNode:
    """Base class for expression AST nodes."""


@dataclass(frozen=True)
class LiteralNode(ExprNode):
    value: Any


@dataclass(frozen=True)
class ColumnNode(ExprNode):
    name: str
    qualifier: str | None = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class StarNode(ExprNode):
    """``*`` or ``alias.*`` — legal only as a select item or in COUNT(*)."""

    qualifier: str | None = None


@dataclass(frozen=True)
class BinaryNode(ExprNode):
    """Comparisons (=, !=, <, <=, >, >=) and arithmetic (+, -, *, /)."""

    op: str
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class AndNode(ExprNode):
    operands: tuple[ExprNode, ...]


@dataclass(frozen=True)
class OrNode(ExprNode):
    operands: tuple[ExprNode, ...]


@dataclass(frozen=True)
class NotNode(ExprNode):
    operand: ExprNode


@dataclass(frozen=True)
class LikeNode(ExprNode):
    operand: ExprNode
    pattern: str
    negate: bool = False


@dataclass(frozen=True)
class InListNode(ExprNode):
    operand: ExprNode
    values: tuple[Any, ...]
    negate: bool = False


@dataclass(frozen=True)
class InSubqueryNode(ExprNode):
    operand: ExprNode
    subquery: "SelectStatement"
    negate: bool = False


@dataclass(frozen=True)
class ExistsNode(ExprNode):
    subquery: "SelectStatement"
    negate: bool = False


@dataclass(frozen=True)
class IsNullNode(ExprNode):
    operand: ExprNode
    negate: bool = False


@dataclass(frozen=True)
class BetweenNode(ExprNode):
    operand: ExprNode
    low: ExprNode
    high: ExprNode
    negate: bool = False


@dataclass(frozen=True)
class FuncNode(ExprNode):
    """A function call: scalar (LOWER...) or aggregate (COUNT, ENT_LIST...).

    ``star`` marks ``COUNT(*)``; ``distinct`` marks ``COUNT(DISTINCT x)``.
    """

    name: str
    args: tuple[ExprNode, ...] = ()
    distinct: bool = False
    star: bool = False


@dataclass(frozen=True)
class SelectItem:
    expression: ExprNode
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    @property
    def qualifier(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    """An explicit ``JOIN table [alias] ON condition`` clause."""

    table: TableRef
    condition: ExprNode | None


@dataclass(frozen=True)
class OrderTerm:
    expression: ExprNode
    descending: bool = False


@dataclass
class SelectStatement:
    items: list[SelectItem]
    from_tables: list[TableRef]
    joins: list[JoinClause] = field(default_factory=list)
    where: ExprNode | None = None
    group_by: list[ExprNode] = field(default_factory=list)
    having: ExprNode | None = None
    order_by: list[OrderTerm] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False


@dataclass
class UnionStatement:
    """``SELECT ... UNION [ALL] SELECT ...`` — an extension beyond the paper's
    core scope (Section 8 lists set operations as future work)."""

    selects: list[SelectStatement]
    all: bool = False


Statement = SelectStatement | UnionStatement
