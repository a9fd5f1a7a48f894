"""Selection conditions over graph nodes.

These are the ``C`` components of an ETable query pattern (Definition 3):
predicates evaluated against a node's attributes, its label, its identity, or
— for the Filter-by-neighbor-label action of Section 6.1 — the labels of its
direct neighbors (a semijoin, translated to an EXISTS subquery in SQL).

Every condition renders to a human-readable string via ``describe()``; the
history view shows those strings (e.g. ``acronym = 'SIGMOD'``).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import TgmError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.tgm.instance_graph import InstanceGraph, Node

_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Condition:
    """Base class. ``matches`` gets the node and the instance graph.

    ``matches`` is the per-node spec. The planner evaluates conditions a
    set at a time instead (``repro.core.planner.condition_ids``), and its
    sets must equal the nodes ``matches`` accepts.
    """

    def matches(self, node: "Node", graph: "InstanceGraph") -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def cache_token(self) -> str:
        """A string that distinguishes *semantically different* conditions.

        Cache keys must use this, not ``describe()``: display strings may
        drop discriminating detail (``NodeIs`` shows its label instead of
        its node id, and two different nodes can share a label).
        """
        return self.describe()

    def __str__(self) -> str:
        return self.describe()


@functools.lru_cache(maxsize=1024)
def compile_like(pattern: str) -> re.Pattern[str]:
    """Compile a LIKE pattern: ``%`` matches any run, ``_`` one character.

    Matching is case-insensitive for every character (PostgreSQL's ILIKE,
    because the ETable UI filters by case-insensitive contains, as in the
    paper's ``country like '%Korea%'``) and crosses newlines. The SQL engine
    installs this matcher as its ``LIKE``, so SQL and the graph agree.
    """
    parts: list[str] = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)


def _format_value(value: Any) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


@dataclass(frozen=True)
class AttributeCompare(Condition):
    """``attribute <op> value`` with NULL never matching."""

    attribute: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise TgmError(f"unknown comparison operator {self.op!r}")

    def matches(self, node: "Node", graph: "InstanceGraph") -> bool:
        return self.accepts(node.attributes.get(self.attribute))

    def accepts(self, actual: Any) -> bool:
        """The verdict on one attribute value, so that a distinct value
        can be tested once for every node holding it."""
        if actual is None or self.value is None:
            return False
        if self.op in ("<", "<=", ">", ">="):
            try:
                return _OPS[self.op](actual, self.value)
            except TypeError:
                return False
        return _OPS[self.op](actual, self.value)

    def describe(self) -> str:
        return f"{self.attribute} {self.op} {_format_value(self.value)}"


@dataclass(frozen=True)
class AttributeLike(Condition):
    """SQL-LIKE pattern over an attribute, case-insensitive."""

    attribute: str
    pattern: str
    negate: bool = False

    def matches(self, node: "Node", graph: "InstanceGraph") -> bool:
        actual = node.attributes.get(self.attribute)
        if actual is None:
            return False
        matched = bool(compile_like(self.pattern).match(str(actual)))
        return not matched if self.negate else matched

    def describe(self) -> str:
        keyword = "not like" if self.negate else "like"
        return f"{self.attribute} {keyword} {_format_value(self.pattern)}"


@dataclass(frozen=True)
class AttributeIn(Condition):
    attribute: str
    values: tuple[Any, ...]

    def matches(self, node: "Node", graph: "InstanceGraph") -> bool:
        return self.accepts(node.attributes.get(self.attribute))

    def accepts(self, actual: Any) -> bool:
        """The verdict on one attribute value (see ``AttributeCompare``)."""
        return actual is not None and actual in self.values

    def describe(self) -> str:
        rendered = ", ".join(_format_value(v) for v in self.values)
        return f"{self.attribute} in ({rendered})"


@dataclass(frozen=True)
class NodeIs(Condition):
    """Identity selection ``{u | u = vk}`` used by Single / SeeAll (Sec 6.1).

    ``label`` is carried along purely for display, so the history view can
    show ``Conferences = 'SIGMOD'`` instead of an opaque node id.
    """

    node_id: int
    label: str = ""

    def matches(self, node: "Node", graph: "InstanceGraph") -> bool:
        return node.node_id == self.node_id

    def cache_token(self) -> str:
        # describe() shows the label for the history panel, but two nodes
        # can share a label; the cache must key on identity.
        return f"node #{self.node_id}"

    def describe(self) -> str:
        if self.label:
            return f"= {_format_value(self.label)}"
        return f"node #{self.node_id}"


@dataclass(frozen=True)
class NodeIn(Condition):
    """Identity selection over a *set* of nodes.

    The set-operations module uses this to re-derive cells for transplanted
    rows: the source pattern is re-executed restricted to exactly the
    transplanted primary nodes (one membership test per candidate instead of
    an OR-chain of :class:`NodeIs`).
    """

    node_ids: frozenset[int]

    def __init__(self, node_ids: Iterable[int]) -> None:
        object.__setattr__(self, "node_ids", frozenset(node_ids))

    def matches(self, node: "Node", graph: "InstanceGraph") -> bool:
        return node.node_id in self.node_ids

    def describe(self) -> str:
        rendered = ", ".join(str(i) for i in sorted(self.node_ids))
        return f"node in {{{rendered}}}"


@dataclass(frozen=True)
class LabelLike(Condition):
    """LIKE over the node's *label attribute* (whatever it is)."""

    pattern: str

    def matches(self, node: "Node", graph: "InstanceGraph") -> bool:
        label = node.label(graph.schema)
        if label is None:
            return False
        return compile_like(self.pattern).match(str(label)) is not None

    def describe(self) -> str:
        return f"label like {_format_value(self.pattern)}"


@dataclass(frozen=True)
class NeighborSatisfies(Condition):
    """Semijoin: the node has ≥1 ``edge_type`` neighbor matching ``inner``.

    This implements the Section 6.1 rule that filtering by the labels of a
    neighbor column "is translated into subqueries": the ETable keeps its
    primary node type, and the condition becomes EXISTS(...) in SQL.
    """

    edge_type: str
    inner: Condition

    def matches(self, node: "Node", graph: "InstanceGraph") -> bool:
        return any(
            self.inner.matches(neighbor, graph)
            for neighbor in graph.neighbors(node.node_id, self.edge_type)
        )

    def cache_token(self) -> str:
        return f"any {self.edge_type} ({self.inner.cache_token()})"

    def describe(self) -> str:
        return f"any {self.edge_type} ({self.inner.describe()})"


@dataclass(frozen=True)
class AndCondition(Condition):
    operands: tuple[Condition, ...]

    def matches(self, node: "Node", graph: "InstanceGraph") -> bool:
        return all(operand.matches(node, graph) for operand in self.operands)

    def cache_token(self) -> str:
        return " & ".join(operand.cache_token() for operand in self.operands)

    def describe(self) -> str:
        return " & ".join(operand.describe() for operand in self.operands)


@dataclass(frozen=True)
class OrCondition(Condition):
    operands: tuple[Condition, ...]

    def matches(self, node: "Node", graph: "InstanceGraph") -> bool:
        return any(operand.matches(node, graph) for operand in self.operands)

    def cache_token(self) -> str:
        return " | ".join(f"({operand.cache_token()})" for operand in self.operands)

    def describe(self) -> str:
        return " | ".join(f"({operand.describe()})" for operand in self.operands)


@dataclass(frozen=True)
class NotCondition(Condition):
    operand: Condition

    def matches(self, node: "Node", graph: "InstanceGraph") -> bool:
        return not self.operand.matches(node, graph)

    def cache_token(self) -> str:
        return f"not ({self.operand.cache_token()})"

    def describe(self) -> str:
        return f"not ({self.operand.describe()})"


def conjoin_conditions(conditions: Iterable[Condition]) -> Condition | None:
    """AND conditions together, flattening; None for an empty iterable."""
    flat: list[Condition] = []
    for condition in conditions:
        if isinstance(condition, AndCondition):
            flat.extend(condition.operands)
        else:
            flat.append(condition)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return AndCondition(tuple(flat))
