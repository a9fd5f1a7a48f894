"""Cost-based planning for instance matching (Definition 4, Section 5.4.1).

The reference matcher (:func:`repro.core.matching.match`) evaluates the
pattern in BFS order from the primary node — correct, but oblivious to how
selective each pattern node is. This module adds the machinery the paper's
interactivity claim (Section 7) and its future-work item #2 (Section 9,
"accelerating the execution speed of updated queries") call for:

* **selectivity estimation** over :class:`~repro.tgm.instance_graph.GraphStatistics`
  (per-type cardinalities, per-edge degree histograms, per-attribute
  distinct counts) — the statistics layer of the engine;
* **set-at-a-time candidate evaluation** (:func:`condition_ids`): a
  condition becomes one set of node ids, built from the attribute-index
  buckets (``InstanceGraph.attribute_index``, one test per distinct value),
  reverse adjacency (a neighbor condition is the image of its inner set)
  and set algebra (``And``/``Or``/``Not``) instead of one evaluation per
  node — the candidate layer. A ``LIKE`` whose pattern holds a run of
  three or more ASCII characters other than ``%`` and ``_`` first narrows
  the distinct values to those whose lowercase form holds every trigram
  of those runs (``InstanceGraph.trigram_index``), and its regex tests
  only those. Non-ASCII values are tested whatever their trigrams, because
  ``re.IGNORECASE`` matches ``'s'`` to ``'ſ'`` and ``'i'`` to ``'İ'``,
  which no lowercased trigram finds;
* a **greedy join-order planner** that starts from the most selective
  pattern node and repeatedly joins the frontier node with the smallest
  estimated result growth, emitting an inspectable :class:`Plan` with
  per-step cost estimates (the REPL's ``plan`` command prints it);
* **prefix-level reuse** hooks: every intermediate relation corresponds to
  a connected subpattern; :class:`PrefixStore` keys them canonically so a
  pattern extended by one node re-executes only the delta join (the paper's
  future-work item #2 realized — see ``repro.core.cache``);
* a **semi-join reduction** (:func:`reduce_plan`): two passes of
  semi-joins along a plan's join steps keep, per pattern node, the ids on
  at least one complete match, without building the join. The ETables of
  multi-node patterns are walked from it
  (:func:`repro.core.transform.transform_reduced`).

The relation :func:`execute_plan` joins is *bit-identical* to the reference
matcher once :func:`restore_reference_order` re-sorts it into the exact
attribute and tuple order the BFS pipeline would have produced, so
``match()``'s callers (format transformation, SQL equivalence tests,
figures) cannot tell the two apart. The reduction builds no relation; the
row walk over it reproduces the ETable that
:func:`repro.core.transform.transform` pivots from that relation.
"""

from __future__ import annotations

import re
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Any, Callable
from weakref import WeakKeyDictionary

from repro.errors import InvalidQueryPattern, TgmError
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
    compile_like,
    conjoin_conditions,
)
from repro.tgm.graph_relation import GraphAttribute, GraphRelation
from repro.tgm.instance_graph import GraphStatistics, InstanceGraph
from repro.core.query_pattern import PatternEdge, QueryPattern

# Heuristic selectivity defaults for predicates without usable statistics.
_LIKE_SELECTIVITY = 0.25
_RANGE_SELECTIVITY = 0.33
_DEFAULT_SELECTIVITY = 0.5


# ----------------------------------------------------------------------
# Selectivity estimation
# ----------------------------------------------------------------------
def estimate_selectivity(
    condition: Condition | None,
    type_name: str,
    stats: GraphStatistics,
) -> float:
    """Estimated fraction of ``type_name`` nodes satisfying ``condition``."""
    if condition is None:
        return 1.0
    cardinality = max(1, stats.cardinality(type_name))
    if isinstance(condition, AndCondition):
        product = 1.0
        for operand in condition.operands:
            product *= estimate_selectivity(operand, type_name, stats)
        return product
    if isinstance(condition, OrCondition):
        product = 1.0
        for operand in condition.operands:
            product *= 1.0 - estimate_selectivity(operand, type_name, stats)
        return 1.0 - product
    if isinstance(condition, NotCondition):
        return 1.0 - estimate_selectivity(condition.operand, type_name, stats)
    if isinstance(condition, NodeIs):
        return 1.0 / cardinality
    if isinstance(condition, NodeIn):
        return min(1.0, len(condition.node_ids) / cardinality)
    if isinstance(condition, AttributeCompare):
        # Per-bucket refinement: equality selectivity comes from the exact
        # attribute-index bucket size, not the 1/distinct uniform average —
        # skewed categorical values (one country holding half the nodes)
        # estimate exactly instead of optimistically.
        if condition.op == "=":
            return stats.equality_fraction(
                type_name, condition.attribute, condition.value
            )
        if condition.op == "!=":
            return 1.0 - stats.equality_fraction(
                type_name, condition.attribute, condition.value
            )
        return _RANGE_SELECTIVITY
    if isinstance(condition, AttributeIn):
        fraction = 0.0
        for value in set(condition.values):
            fraction += stats.equality_fraction(
                type_name, condition.attribute, value
            )
        return min(1.0, fraction)
    if isinstance(condition, AttributeLike):
        return 1.0 - _LIKE_SELECTIVITY if condition.negate else _LIKE_SELECTIVITY
    if isinstance(condition, LabelLike):
        return _LIKE_SELECTIVITY
    if isinstance(condition, NeighborSatisfies):
        edge_stats = stats.edge_type_stats(condition.edge_type)
        participation = min(1.0, edge_stats.sources / cardinality)
        schema = stats.graph.schema
        if schema.has_edge_type(condition.edge_type):
            inner_type = schema.edge_type(condition.edge_type).target
            inner_selectivity = estimate_selectivity(
                condition.inner, inner_type, stats
            )
        else:
            inner_selectivity = _DEFAULT_SELECTIVITY
        # Histogram refinement: P(≥1 matching neighbor) over the exact
        # degree histogram, not min(1, avg_degree × s) — the average form
        # overstates matches for the many low-degree nodes of skewed edges.
        return participation * stats.neighbor_match_probability(
            condition.edge_type, inner_selectivity
        )
    return _DEFAULT_SELECTIVITY


# ----------------------------------------------------------------------
# Set-at-a-time condition evaluation (the candidate layer)
# ----------------------------------------------------------------------
def condition_ids(
    condition: Condition, graph: InstanceGraph, type_name: str
) -> frozenset[int]:
    """Ids of the ``type_name`` nodes satisfying ``condition``, as one set.

    Equals ``{n.node_id for n in graph.nodes_of_type(type_name) if
    condition.matches(n, graph)}`` (``matches`` is the spec), evaluated a
    set at a time: comparisons, ``IN`` and ``LIKE`` test each distinct
    value of the attribute index once, with one compiled regex per call;
    ``NeighborSatisfies`` is the reverse-adjacency image of its inner set,
    the in-memory form of the ``EXISTS`` subquery of Section 6.1; and
    ``And``/``Or``/``Not`` are set algebra over the type's ids.

    A ``LIKE`` (``AttributeLike`` or ``LabelLike``) takes the trigram
    prefilter when its pattern has a run of three or more ASCII characters;
    ``%``, ``_`` and any non-ASCII character end a run. Only the distinct
    ASCII strings holding every lowercased trigram of those runs can match,
    so the regex tests those alone. It also tests every non-ASCII string,
    since ``re.IGNORECASE`` folds some of them onto ASCII letters (``'ſ'``
    onto ``'s'``, the Kelvin sign U+212A onto ``'k'``) in ways no
    lowercased trigram records, and every non-string or unhashable value,
    by its ``str()``. Any other pattern tests every distinct value.
    """
    if isinstance(condition, AndCondition):
        ids: frozenset[int] | None = None
        for operand in condition.operands:
            operand_ids = condition_ids(operand, graph, type_name)
            ids = operand_ids if ids is None else ids & operand_ids
            if not ids:
                break
        if ids is None:  # an empty conjunction holds for every node
            return frozenset(graph.node_ids_of_type(type_name))
        return ids
    if isinstance(condition, OrCondition):
        return frozenset().union(
            *(condition_ids(o, graph, type_name) for o in condition.operands)
        )
    if isinstance(condition, NotCondition):
        return frozenset(graph.node_ids_of_type(type_name)) - condition_ids(
            condition.operand, graph, type_name
        )
    if isinstance(condition, (NodeIs, NodeIn)):
        return frozenset(
            node_id
            for node_id in _identity_ids(condition)
            if graph.has_node(node_id)
            and graph.node(node_id).type_name == type_name
        )
    if isinstance(condition, NeighborSatisfies):
        return _neighbor_ids(condition, graph, type_name)
    if isinstance(condition, LabelLike):
        label = graph.schema.node_type(type_name).label_attribute
        condition = AttributeLike(label, condition.pattern)
    if isinstance(condition, AttributeLike):
        trigrams = _like_trigrams(condition.pattern)
        if trigrams:
            return _prefiltered_like_ids(graph, type_name, condition,
                                         trigrams)
        match = compile_like(condition.pattern).match
        negate = condition.negate
        return _attribute_ids(
            graph, type_name, condition.attribute,
            lambda value: (match(str(value)) is not None) != negate,
            by_string=True,
        )
    if isinstance(condition, (AttributeCompare, AttributeIn)):
        return _attribute_ids(
            graph, type_name, condition.attribute, condition.accepts
        )
    return frozenset(
        node.node_id
        for node in graph.nodes_of_type(type_name)
        if condition.matches(node, graph)
    )


def _attribute_ids(
    graph: InstanceGraph,
    type_name: str,
    attribute: str,
    test: Callable[[Any], bool],
    by_string: bool = False,
) -> frozenset[int]:
    """Ids of ``type_name`` nodes whose non-NULL ``attribute`` value passes
    ``test``, tested once per attribute-index bucket.

    The index merges values that compare equal (``1``, ``1.0`` and
    ``True`` share a bucket), which comparisons treat alike but ``str``
    does not: with ``by_string``, a bucket keyed by a non-string is tested
    member by member. The index skips unhashable values; those nodes are
    tested one by one.
    """
    index = graph.attribute_index(type_name, attribute)
    node_of = graph.node
    ids: list[int] = []
    for value, bucket in index.items():
        if by_string and type(value) is not str:
            ids.extend(
                node_id
                for node_id in bucket
                if test(node_of(node_id).attributes[attribute])
            )
        elif test(value):
            ids.extend(bucket)
    for node_id in graph.unindexed_ids(type_name, attribute):
        if test(node_of(node_id).attributes[attribute]):
            ids.append(node_id)
    return frozenset(ids)


# A literal run of a LIKE pattern: ASCII characters other than the
# wildcards. A non-ASCII character ends a run, because re.IGNORECASE may
# match it to a character its lowercase form is not.
_LIKE_RUN = re.compile(r"[^%_\x80-\U0010ffff]{3,}")


def _like_trigrams(pattern: str) -> set[str]:
    """The lowercased trigrams of ``pattern``'s literal ASCII runs of three
    or more characters; empty when it has no such run."""
    return {
        run[start:start + 3]
        for run in map(str.lower, _LIKE_RUN.findall(pattern))
        for start in range(len(run) - 2)
    }


def _prefiltered_like_ids(
    graph: InstanceGraph,
    type_name: str,
    condition: AttributeLike,
    trigrams: set[str],
) -> frozenset[int]:
    """:func:`_attribute_ids` for a ``LIKE`` whose pattern has
    ``trigrams``: the regex tests only the strings the trigram index
    cannot rule out, plus the nodes whose value it does not cover. A
    negated pattern holds for the type's non-NULL ids outside that set."""
    attribute = condition.attribute
    index = graph.attribute_index(type_name, attribute)
    trigram_index = graph.trigram_index(type_name, attribute)
    match = compile_like(condition.pattern).match
    node_of = graph.node
    ids: list[int] = []
    for value in trigram_index.candidates(trigrams):
        if match(value) is not None:
            ids.extend(index[value])
    for node_id in trigram_index.other_ids:
        if match(str(node_of(node_id).attributes[attribute])) is not None:
            ids.append(node_id)
    if not condition.negate:
        return frozenset(ids)
    non_null = chain(chain.from_iterable(index.values()),
                     graph.unindexed_ids(type_name, attribute))
    return frozenset(non_null).difference(ids)


def _neighbor_ids(
    condition: NeighborSatisfies, graph: InstanceGraph, type_name: str
) -> frozenset[int]:
    """The ``type_name`` nodes with a neighbor in the inner set: one
    semi-join (:func:`_semi_join`)."""
    edge_type = graph.schema.edge_type(condition.edge_type)
    if edge_type.source != type_name:
        return frozenset()  # the edge type leaves another node type
    inner = condition_ids(condition.inner, graph, edge_type.target)
    return _semi_join(graph, type_name, None, condition.edge_type,
                      edge_type.target, inner, edge_type.reverse_name)


def candidate_ids(
    graph: InstanceGraph,
    type_name: str,
    condition: Condition | None,
) -> list[int]:
    """Node ids of ``type_name`` satisfying ``condition``, in type order
    (ids ascend in creation order, so sorting :func:`condition_ids`'s set
    restores it)."""
    if condition is None:
        return graph.node_ids_of_type(type_name)
    return sorted(condition_ids(condition, graph, type_name))


# ----------------------------------------------------------------------
# Plan representation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanStep:
    """One step of a :class:`Plan`: a base scan or a materializing join."""

    kind: str  # "scan" | "join"
    key: str  # pattern-node key this step produces
    est_rows: float  # estimated result cardinality *after* this step
    detail: str  # human-readable access-path / fanout note
    edge_type: str | None = None  # traversal edge (join steps only)
    left_key: str | None = None  # prefix attribute the join probes from

    def describe(self) -> str:
        if self.kind == "scan":
            return f"scan {self.key}: {self.detail} (est {self.est_rows:.1f} rows)"
        return (
            f"join {self.left_key} -[{self.edge_type}]-> {self.key}: "
            f"{self.detail} (est {self.est_rows:.1f} rows)"
        )


@dataclass
class Plan:
    """An inspectable execution plan for one query pattern.

    ``steps[0]`` is always a scan of the most selective node; each later
    step joins one more pattern node onto the connected prefix. ``explain``
    renders the plan the way the REPL's ``plan`` command shows it.
    """

    pattern: QueryPattern
    steps: list[PlanStep]
    node_estimates: dict[str, float] = field(default_factory=dict)

    @property
    def order(self) -> list[str]:
        return [step.key for step in self.steps]

    def explain(self) -> str:
        lines = ["Execution plan (selectivity-ordered):"]
        for number, step in enumerate(self.steps, start=1):
            lines.append(f"  {number}. {step.describe()}")
        return "\n".join(lines)


def build_plan(
    pattern: QueryPattern,
    graph: InstanceGraph,
    stats: GraphStatistics | None = None,
) -> Plan:
    """Greedy selectivity-ordered join plan over the pattern tree.

    Starts from the pattern node with the smallest estimated post-selection
    cardinality, then repeatedly picks the frontier node minimizing the
    estimated result growth ``rows × fanout(edge) × selectivity(node)``.
    Directions without an adjacency index (an edge type lacking its reverse
    twin) are never chosen, so the start is the cheapest node from which
    every pattern node can be reached in indexed directions.
    """
    stats = stats or graph.statistics()
    estimates: dict[str, float] = {}
    selectivities: dict[str, float] = {}
    for node in pattern.nodes:
        condition = conjoin_conditions(node.conditions)
        selectivity = estimate_selectivity(condition, node.type_name, stats)
        selectivities[node.key] = selectivity
        estimates[node.key] = stats.cardinality(node.type_name) * selectivity

    starts = [key for key in estimates
              if _reaches_every_node(pattern, graph, key)]
    if not starts:
        raise InvalidQueryPattern(
            "pattern is not connected (or an edge lacks a traversable "
            "direction)"
        )
    start_key = min(starts, key=lambda key: (estimates[key], _index_of(pattern, key)))
    start_node = pattern.node(start_key)
    steps = [
        PlanStep(
            kind="scan",
            key=start_key,
            est_rows=estimates[start_key],
            detail=_scan_detail(start_node, graph),
        )
    ]
    covered = {start_key}
    est_rows = max(estimates[start_key], 0.0)
    while len(covered) < len(pattern.nodes):
        best: tuple[float, int, str, PatternEdge, str, str] | None = None
        for edge in pattern.edges:
            for left_key, new_key in (
                (edge.source_key, edge.target_key),
                (edge.target_key, edge.source_key),
            ):
                if left_key not in covered or new_key in covered:
                    continue
                traversal = _traversal_edge_name(graph, edge, new_key)
                if traversal is None:
                    continue
                left_type = pattern.node(left_key).type_name
                new_type = pattern.node(new_key).type_name
                fanout = stats.avg_fanout(traversal, left_type)
                growth = est_rows * fanout * selectivities[new_key]
                candidate = (
                    growth,
                    _index_of(pattern, new_key),
                    new_key,
                    edge,
                    left_key,
                    traversal,
                )
                if best is None or candidate[:2] < best[:2]:
                    best = candidate
        # The start reaches every node, so the frontier is never stuck.
        assert best is not None
        growth, _, new_key, edge, left_key, traversal = best
        est_rows = growth
        left_type = pattern.node(left_key).type_name
        steps.append(
            PlanStep(
                kind="join",
                key=new_key,
                est_rows=est_rows,
                detail=(
                    f"probe adjacency (avg fanout "
                    f"{stats.avg_fanout(traversal, left_type):.2f}, node "
                    f"selectivity {selectivities[new_key]:.3f})"
                ),
                edge_type=traversal,
                left_key=left_key,
            )
        )
        covered.add(new_key)
    return Plan(pattern=pattern, steps=steps, node_estimates=estimates)


def _reaches_every_node(pattern: QueryPattern, graph: InstanceGraph,
                        start_key: str) -> bool:
    """Whether every pattern node can be reached from ``start_key`` along
    edges traversed in directions with an adjacency index."""
    reached = {start_key}
    for _ in pattern.nodes:  # a path has fewer edges than the pattern nodes
        reached |= {
            new_key
            for edge in pattern.edges
            for left_key, new_key in ((edge.source_key, edge.target_key),
                                      (edge.target_key, edge.source_key))
            if left_key in reached
            and _traversal_edge_name(graph, edge, new_key) is not None
        }
    return len(reached) == len(pattern.nodes)


def _index_of(pattern: QueryPattern, key: str) -> int:
    for index, node in enumerate(pattern.nodes):
        if node.key == key:
            return index
    return len(pattern.nodes)


def _scan_detail(node, graph: InstanceGraph) -> str:
    condition = conjoin_conditions(node.conditions)
    if condition is None:
        return f"full {node.type_name} scan"
    if _identity_ids(condition) is not None:
        return "identity probe"
    attribute = _equality_attribute(condition)
    if attribute is not None:
        return f"hash-index probe on {node.type_name}.{attribute}"
    return f"filtered {node.type_name} scan"


def _identity_ids(condition: Condition) -> frozenset[int] | None:
    """The node ids an identity condition (``NodeIs``/``NodeIn``, or a
    conjunction holding one) restricts matches to; None if unconstrained."""
    if isinstance(condition, NodeIs):
        return frozenset((condition.node_id,))
    if isinstance(condition, NodeIn):
        return condition.node_ids
    if isinstance(condition, AndCondition):
        constrained = [
            ids
            for ids in map(_identity_ids, condition.operands)
            if ids is not None
        ]
        if constrained:
            return frozenset.intersection(*constrained)
    return None


def _equality_attribute(condition: Condition) -> str | None:
    """The attribute of the first ``=`` or ``IN`` (with a non-NULL
    constant) that every match of ``condition`` must satisfy, or None."""
    if isinstance(condition, AttributeCompare):
        if condition.op == "=" and condition.value is not None:
            return condition.attribute
    elif isinstance(condition, AttributeIn):
        if any(value is not None for value in condition.values):
            return condition.attribute
    elif isinstance(condition, AndCondition):
        for operand in condition.operands:
            attribute = _equality_attribute(operand)
            if attribute is not None:
                return attribute
    return None


def _traversal_edge_name(
    graph: InstanceGraph, edge: PatternEdge, toward_key: str
) -> str | None:
    """Adjacency-indexed edge-type name for traversing ``edge`` toward
    ``toward_key``; None when that direction has no index."""
    if toward_key == edge.target_key:
        return edge.edge_type
    schema_edge = graph.schema.edge_type(edge.edge_type)
    return schema_edge.reverse_name


# ----------------------------------------------------------------------
# Plan keys: patterns with their constants lifted out
# ----------------------------------------------------------------------
# The one stand-in for every constant a plan key lifts, so ``year =
# 2006`` and ``year = 2010`` share a key.
_PARAMETER = "?"


def _lift_condition(condition: Condition) -> Condition:
    """``condition`` with its comparison / ``IN`` / ``LIKE`` constants
    replaced by the placeholder.

    Identity conditions (``NodeIs`` / ``NodeIn``) stay structural: a
    Single/SeeAll action's node id *is* the query shape, and lifting it
    would make unrelated drill-downs share a plan keyed only on "some
    identity probe".
    """
    if isinstance(condition, AttributeCompare):
        return replace(condition, value=_PARAMETER)
    if isinstance(condition, AttributeIn):
        # The whole value tuple is one placeholder, so the key is
        # arity-independent: ``year in (2006, 2007)`` and a three-year IN
        # share one compiled plan.
        return replace(condition, values=(_PARAMETER,))
    if isinstance(condition, (AttributeLike, LabelLike)):
        return replace(condition, pattern=_PARAMETER)
    if isinstance(condition, NeighborSatisfies):
        return replace(condition, inner=_lift_condition(condition.inner))
    if isinstance(condition, (AndCondition, OrCondition)):
        return replace(
            condition,
            operands=tuple(_lift_condition(o) for o in condition.operands),
        )
    if isinstance(condition, NotCondition):
        return replace(condition, operand=_lift_condition(condition.operand))
    return condition


def canonical_condition_token(condition: Condition) -> str:
    """``cache_token()`` with commutative combinator operands sorted.

    ``AndCondition((a, b))`` and ``AndCondition((b, a))`` select the same
    rows but render different ``cache_token()`` strings (operand order is
    preserved there); sorting the operand tokens recursively makes the
    rendering canonical, so semantically equal conditions share cache keys.
    """
    if isinstance(condition, AndCondition):
        return " & ".join(
            sorted(canonical_condition_token(o) for o in condition.operands)
        )
    if isinstance(condition, OrCondition):
        return " | ".join(
            sorted(f"({canonical_condition_token(o)})" for o in condition.operands)
        )
    if isinstance(condition, NotCondition):
        return f"not ({canonical_condition_token(condition.operand)})"
    if isinstance(condition, NeighborSatisfies):
        return (
            f"any {condition.edge_type} "
            f"({canonical_condition_token(condition.inner)})"
        )
    return condition.cache_token()


def canonical_pattern_key(pattern: QueryPattern) -> tuple:
    """Canonical, hashable, full-fidelity rendering of a pattern.

    Node order is normalized by key, per-node condition tokens are sorted,
    and commutative combinators render canonically (see
    :func:`canonical_condition_token`) — logically identical patterns built
    in different orders share one key, constants included.
    """
    nodes = tuple(
        (
            node.key,
            node.type_name,
            tuple(sorted(canonical_condition_token(c) for c in node.conditions)),
        )
        for node in sorted(pattern.nodes, key=lambda n: n.key)
    )
    edges = tuple(
        sorted((e.edge_type, e.source_key, e.target_key) for e in pattern.edges)
    )
    return (pattern.primary_key, nodes, edges)


def plan_key(pattern: QueryPattern) -> tuple:
    """The canonical key of ``pattern`` with its constants lifted out.

    Patterns differing only in comparison / ``IN`` / ``LIKE`` constants —
    or in node / condition / combinator-operand order — share it, so one
    compiled plan serves them all (edgedb-style normalization).
    """
    nodes = tuple(
        replace(node, conditions=tuple(
            _lift_condition(c) for c in node.conditions
        ))
        for node in pattern.nodes
    )
    return canonical_pattern_key(replace(pattern, nodes=nodes))


# ----------------------------------------------------------------------
# Prefix store: canonical subpattern keys -> intermediate relations
# ----------------------------------------------------------------------
def subpattern_key(pattern: QueryPattern, keys: frozenset[str]) -> tuple:
    """Canonical, primary-independent key of the induced subpattern.

    Two patterns that share a connected subpattern (same node keys, types,
    conditions, and induced edges) map to the same key, regardless of node
    insertion order or which node is primary — so an intermediate computed
    for one pattern is reusable by any extension of it.
    """
    nodes = tuple(
        sorted(
            (
                node.key,
                node.type_name,
                tuple(sorted(c.cache_token() for c in node.conditions)),
            )
            for node in pattern.nodes
            if node.key in keys
        )
    )
    edges = tuple(
        sorted(
            (edge.edge_type, edge.source_key, edge.target_key)
            for edge in pattern.edges
            if edge.source_key in keys and edge.target_key in keys
        )
    )
    return (nodes, edges)


def relation_cells(relation: GraphRelation) -> int:
    """The size of a graph relation in cells (rows × attributes).

    Used as the eviction weight of cached intermediates: a relation's memory
    footprint is proportional to its cell count (each cell is one node id),
    so budgeting by cells keeps the cache's *memory* bounded instead of its
    entry count. Empty relations still weigh one cell so every entry has a
    positive weight.
    """
    return max(1, len(relation) * max(1, len(relation.attributes)))


# Rough per-cell memory cost: a node id held in a Python list costs one
# 8-byte pointer plus (usually shared) int objects; 8 bytes is the floor and
# keeps the reported byte counters conservative and platform-independent.
_BYTES_PER_CELL = 8


class PrefixStore:
    """Size-weighted LRU store of intermediate relations keyed by canonical
    subpattern.

    Every relation is semantically *exact*: the full selection+join of its
    subpattern (no cross-subpattern pruning), so any pattern containing the
    subpattern may start from it and only execute the delta joins. The
    executor's whole-pattern store reuses the mechanics for whole-pattern
    relations and for semi-join reductions (see ``repro.core.cache``),
    which ``put`` weighs by an explicit ``weight``.

    Eviction is weighted by relation size (rows × attributes, via
    :func:`relation_cells`), not entry count alone: with ``max_cells`` set,
    inserting entries evicts least-recently-used ones until the total cell
    budget is respected, and a single relation larger than the whole budget
    is refused outright — one huge intermediate can neither pin the cache
    nor wipe it.
    """

    def __init__(self, max_entries: int = 512,
                 max_cells: int | None = None) -> None:
        self.max_entries = max_entries
        self.max_cells = max_cells
        self._store: OrderedDict[tuple, Any] = OrderedDict()
        self._weights: dict[tuple, int] = {}
        self.total_cells = 0
        self.evictions = 0
        self.evicted_cells = 0
        self.rejected = 0
        self.lookups = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: tuple) -> bool:
        return key in self._store

    @property
    def hit_rate(self) -> float:
        """Lookup hit rate; 0.0 on a cold store (never a ZeroDivisionError)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def get(self, key: tuple) -> Any:
        self.lookups += 1
        relation = self._store.get(key)
        if relation is not None:
            self.hits += 1
            self._store.move_to_end(key)
        return relation

    def put(self, key: tuple, relation: Any,
            weight: int | None = None) -> None:
        """Store ``relation`` under ``key``, weighing it ``weight`` cells
        (default: :func:`relation_cells`; at least one)."""
        weight = relation_cells(relation) if weight is None else max(1, weight)
        if self.max_cells is not None and weight > self.max_cells:
            # Admission policy: a relation larger than the entire budget
            # would evict everything else and then sit unevictable until
            # the next put. Refuse it; recomputing one giant intermediate
            # is cheaper than losing the whole working set.
            self.rejected += 1
            self._store.pop(key, None)
            self.total_cells -= self._weights.pop(key, 0)
            return
        if key in self._store:
            self._store.move_to_end(key)
            self.total_cells -= self._weights[key]
        self._store[key] = relation
        self._weights[key] = weight
        self.total_cells += weight
        while len(self._store) > 1 and (
            len(self._store) > self.max_entries
            or (self.max_cells is not None
                and self.total_cells > self.max_cells)
        ):
            evicted_key, _ = self._store.popitem(last=False)
            evicted_weight = self._weights.pop(evicted_key)
            self.total_cells -= evicted_weight
            self.evictions += 1
            self.evicted_cells += evicted_weight

    def stats(self) -> dict[str, int | float | None]:
        """Bytes-weighted occupancy, lookup, and eviction counters.

        Safe to call on a cold store: the hit rate is guarded, so a health
        probe hitting a just-booted service never trips a division by zero.
        """
        return {
            "entries": len(self._store),
            "cells": self.total_cells,
            "approx_bytes": self.total_cells * _BYTES_PER_CELL,
            "max_entries": self.max_entries,
            "max_cells": self.max_cells,
            "lookups": self.lookups,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "evicted_cells": self.evicted_cells,
            "rejected": self.rejected,
        }

    def clear(self) -> None:
        self._store.clear()
        self._weights.clear()
        self.total_cells = 0


# How many candidate subpatterns the reuse lookup may inspect before giving
# up; incremental sessions hit at distance 0 or 1, so this is generous.
_MAX_PREFIX_CANDIDATES = 64


def find_cached_base(
    pattern: QueryPattern, store: PrefixStore
) -> tuple[frozenset[str], GraphRelation] | None:
    """Largest cached subpattern of ``pattern``, by leaf-removal BFS.

    Explores subpatterns in order of how many nodes were removed (0 = the
    whole pattern), always removing tree leaves so every candidate stays
    connected. Capped at ``_MAX_PREFIX_CANDIDATES`` inspections.
    """
    all_keys = frozenset(node.key for node in pattern.nodes)
    queue: deque[frozenset[str]] = deque([all_keys])
    seen: set[frozenset[str]] = {all_keys}
    inspected = 0
    while queue and inspected < _MAX_PREFIX_CANDIDATES:
        keys = queue.popleft()
        inspected += 1
        cached = store.get(subpattern_key(pattern, keys))
        if cached is not None:
            return keys, cached
        if len(keys) == 1:
            continue
        degree: dict[str, int] = {key: 0 for key in keys}
        for edge in pattern.edges:
            if edge.source_key in keys and edge.target_key in keys:
                degree[edge.source_key] += 1
                degree[edge.target_key] += 1
        for key, count in degree.items():
            if count <= 1:  # a leaf of the induced tree: removal stays connected
                smaller = keys - {key}
                if smaller not in seen:
                    seen.add(smaller)
                    queue.append(smaller)
    return None


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass
class ExecutionReport:
    """What actually happened while executing a plan (for cache stats)."""

    reused_nodes: int = 0
    delta_joins: int = 0


def execute_plan(
    plan: Plan,
    graph: InstanceGraph,
    store: PrefixStore | None = None,
    report: ExecutionReport | None = None,
) -> GraphRelation:
    """Run a plan; result tuples are in *engine order* (see
    :func:`restore_reference_order` for the reference ordering).

    The start node's candidate set is scanned, then every other node is
    joined on in plan order, probing adjacency and keeping neighbors in
    that node's candidate set; each candidate set is evaluated once, as a
    whole set (:func:`candidate_ids`), when its node is joined.

    With a ``store``, the executor first looks for the largest cached
    subpattern and only executes the delta joins, recording every new
    intermediate under its canonical subpattern key — exact for its own
    subpattern, so reusable by *any* extension.
    """
    pattern = plan.pattern
    report = report if report is not None else ExecutionReport()
    conditions = {
        node.key: conjoin_conditions(node.conditions) for node in pattern.nodes
    }
    types = {node.key: node.type_name for node in pattern.nodes}

    covered: frozenset[str]
    relation: GraphRelation
    base = find_cached_base(pattern, store) if store is not None else None
    if base is not None:
        covered, relation = base
        report.reused_nodes = len(covered)
    else:
        start_key = plan.steps[0].key
        start_ids = candidate_ids(graph, types[start_key],
                                  conditions[start_key])
        relation = GraphRelation.from_columns(
            [GraphAttribute(start_key, types[start_key])], [start_ids]
        )
        covered = frozenset([start_key])
        if store is not None:
            store.put(subpattern_key(pattern, covered), relation)

    # Delta joins: follow the plan order, skipping already-covered nodes;
    # when the cached base doesn't match the plan prefix, fall back to any
    # traversable frontier edge (the greedy order is a heuristic, coverage
    # correctness only needs connectivity).
    remaining = [step for step in plan.steps if step.key not in covered]
    pending = deque(remaining)
    stuck_guard = 0
    while pending:
        step = pending.popleft()
        join_info = _frontier_join(pattern, graph, covered, step.key)
        if join_info is None:
            pending.append(step)  # not adjacent to covered set yet
            stuck_guard += 1
            if stuck_guard > len(pending) + 1:
                raise TgmError(
                    f"cannot reach pattern node {step.key!r} from the "
                    f"covered set {sorted(covered)!r}"
                )
            continue
        stuck_guard = 0
        left_key, traversal = join_info
        relation = _delta_join(
            relation,
            graph,
            left_key,
            traversal,
            step.key,
            types[step.key],
            dict.fromkeys(candidate_ids(graph, types[step.key],
                                        conditions[step.key])),
        )
        report.delta_joins += 1
        covered = covered | {step.key}
        if store is not None:
            store.put(subpattern_key(pattern, covered), relation)
    return relation


def _frontier_join(
    pattern: QueryPattern,
    graph: InstanceGraph,
    covered: frozenset[str],
    new_key: str,
) -> tuple[str, str] | None:
    """(left key, traversal edge name) connecting ``new_key`` to ``covered``."""
    for edge in pattern.edges_touching(new_key):
        other = (
            edge.target_key if edge.source_key == new_key else edge.source_key
        )
        if other not in covered:
            continue
        traversal = _traversal_edge_name(graph, edge, new_key)
        if traversal is not None:
            return other, traversal
    return None


def _delta_join(
    relation: GraphRelation,
    graph: InstanceGraph,
    left_key: str,
    traversal_edge: str,
    new_key: str,
    new_type: str,
    candidate_set: dict[int, None] | frozenset[int] | None,
) -> GraphRelation:
    """Join one new pattern node onto the prefix by probing adjacency.

    Dangling prefix tuples (no neighbor inside the candidate set) are
    dropped without materializing anything — the semi-join check and the
    join share one pass. ``candidate_set=None`` means the new node is
    unconditioned: every adjacency neighbor qualifies (adjacency lists are
    type-homogeneous), so no candidate enumeration is needed at all —
    this keeps the incremental engine's pivot deltas O(|prefix| × fanout)
    instead of O(|node type|).
    """
    left_position = relation.position(left_key)
    columns = relation.columns_view()
    source_column = columns[left_position]
    adjacency = graph._adjacency
    # First pass collects (prefix row index, neighbor) pairs; the output
    # columns are then materialized column-wise, which is much faster than
    # per-output-row appends across every column.
    selected: list[int] = []
    new_column: list[int] = []
    if candidate_set is None:
        for index in range(len(relation)):
            neighbors = adjacency.get((source_column[index], traversal_edge))
            if not neighbors:
                continue
            for neighbor_id in neighbors:
                selected.append(index)
                new_column.append(neighbor_id)
    else:
        for index in range(len(relation)):
            neighbors = adjacency.get((source_column[index], traversal_edge))
            if not neighbors:
                continue
            for neighbor_id in neighbors:
                if neighbor_id in candidate_set:
                    selected.append(index)
                    new_column.append(neighbor_id)
    out = [[column[index] for index in selected] for column in columns]
    out.append(new_column)
    attributes = list(relation.attributes) + [GraphAttribute(new_key, new_type)]
    return GraphRelation.from_columns(attributes, out)


# ----------------------------------------------------------------------
# Semi-join reduction (multi-node ETables)
# ----------------------------------------------------------------------
def reduce_plan(
    plan: Plan, graph: InstanceGraph
) -> dict[str, frozenset[int] | None]:
    """Per pattern node, the ids that lie on at least one complete match,
    found by semi-joins along the plan's join steps; no join is built.

    Each node starts from :func:`condition_ids` of its conditions. A node
    without conditions stays ``None`` ("every node of its type") until a
    semi-join narrows it. The first pass walks the join steps in reverse:
    each step's left node keeps the ids with a neighbor in the step node's
    set. The second walks them forward: each step node keeps the ids with
    a neighbor in its left node's set. Over a tree pattern the two passes
    are the full reducer, so the sets do not depend on which node is
    primary, and every path of adjacent ids through them extends to a
    complete match (the row walk of
    :func:`repro.core.transform.transform_reduced` relies on that).
    """
    pattern = plan.pattern
    types = {node.key: node.type_name for node in pattern.nodes}
    reduced: dict[str, frozenset[int] | None] = {}
    for node in pattern.nodes:
        condition = conjoin_conditions(node.conditions)
        reduced[node.key] = (
            None if condition is None
            else condition_ids(condition, graph, node.type_name)
        )
    joins = plan.steps[1:]
    reverse = {
        step.edge_type: graph.schema.edge_type(step.edge_type).reverse_name
        for step in joins
    }
    for step in reversed(joins):
        reduced[step.left_key] = _semi_join(
            graph, types[step.left_key], reduced[step.left_key],
            step.edge_type, types[step.key], reduced[step.key],
            reverse[step.edge_type],
        )
    for step in joins:
        reduced[step.key] = _semi_join(
            graph, types[step.key], reduced[step.key],
            reverse[step.edge_type], types[step.left_key],
            reduced[step.left_key], step.edge_type,
        )
    return reduced


def _semi_join(
    graph: InstanceGraph,
    kept_type: str,
    kept: frozenset[int] | None,
    outward: str | None,
    other_type: str,
    other: frozenset[int] | None,
    inward: str | None,
) -> frozenset[int] | None:
    """``kept`` cut to the ids with a neighbor in ``other``; None stands
    for every node of the side's type.

    ``outward`` names the adjacency from the kept side to the other and
    ``inward`` the one back; an edge type without a reverse twin leaves
    one of them None. When ``inward`` exists and the other side is not
    larger, the result is its reverse-adjacency image; otherwise the kept
    side's adjacency is scanned against it. Against a ``None`` side, the
    kept ids with any such neighbor remain, which is every one when each
    node of the type has one.
    """
    stats = graph.statistics()
    cardinality = stats.cardinality(kept_type)
    if other is None and outward is not None:
        if stats.edge_type_stats(outward).sources == cardinality:
            return kept  # every node of the type has such a neighbor
        return frozenset(
            node_id
            for node_id in (kept if kept is not None
                            else graph.node_ids_of_type(kept_type))
            if graph.neighbors_view(node_id, outward)
        )
    if other is None:
        other = frozenset(graph.node_ids_of_type(other_type))
    size = cardinality if kept is None else len(kept)
    if inward is not None and (outward is None or len(other) <= size):
        image = frozenset(
            node_id
            for other_id in other
            for node_id in graph.neighbors_view(other_id, inward)
        )
        return image if kept is None else kept & image
    return frozenset(
        node_id
        for node_id in (kept if kept is not None
                        else graph.node_ids_of_type(kept_type))
        if not other.isdisjoint(graph.neighbors_view(node_id, outward))
    )


# ----------------------------------------------------------------------
# Reference-order restoration
# ----------------------------------------------------------------------
# Adjacency-rank dictionaries are pure functions of the adjacency lists,
# which no write changes once the graph has built its statistics (the first
# thing restore_reference_order does), so they are shared across
# restorations of one graph.
_RANK_CACHES: "WeakKeyDictionary[InstanceGraph, dict[tuple, dict[int, int]]]" = (
    WeakKeyDictionary()
)


def restore_reference_order(
    pattern: QueryPattern,
    relation: GraphRelation,
    graph: InstanceGraph,
) -> GraphRelation:
    """Re-order a planner result into the reference matcher's exact output.

    The reference pipeline joins in BFS order from the primary node and
    iterates base relations in node-insertion order and adjacency lists in
    edge-insertion order, which makes its tuple order lexicographic in
    per-position ranks: the primary's insertion rank first, then — for each
    later BFS position — the rank of the node within its *parent's*
    adjacency list. Sorting by that key (and permuting attributes into BFS
    order) reproduces the reference output bit-for-bit, so ETable row order
    and cell order are preserved no matter what order the planner joined in.
    """
    stats = graph.statistics()
    order = pattern.traversal_order()
    positions = [relation.position(key) for key, _ in order]
    columns = relation.columns_view()
    rank_cache = _RANK_CACHES.setdefault(graph, {})
    primary_type = pattern.node(order[0][0]).type_name
    root_rank = rank_cache.get(("type", primary_type))
    if root_rank is None:
        root_rank = {
            node_id: rank
            for rank, node_id in enumerate(graph.node_ids_of_type(primary_type))
        }
        rank_cache[("type", primary_type)] = root_rank
    parents: list[tuple[int, str]] = []
    for key, edge in order[1:]:
        assert edge is not None
        if edge.target_key == key:
            traversal = edge.edge_type
            parent_key = edge.source_key
        else:
            traversal = graph.schema.reverse_of(edge.edge_type).name
            parent_key = edge.target_key
        parents.append((relation.position(parent_key), traversal))

    def ranks_of(parent_id: int, traversal: str) -> dict[int, int]:
        cache_key = (parent_id, traversal)
        ranks = rank_cache.get(cache_key)
        if ranks is None:
            ranks = {}
            for index, neighbor in enumerate(
                graph.neighbors_view(parent_id, traversal)
            ):
                if neighbor not in ranks:
                    ranks[neighbor] = index
            rank_cache[cache_key] = ranks
        return ranks

    # One composite integer key per row, accumulated column-wise: each BFS
    # position contributes its rank scaled into its own digit range (the
    # per-edge max degree bounds adjacency ranks), so integer comparison
    # equals the positional lexicographic comparison the reference's nested
    # loops produce — and sorts much faster than tuple keys.
    size = len(relation)
    root_column = columns[positions[0]]
    sort_keys = [root_rank[node_id] for node_id in root_column]
    for (parent_position, traversal), position in zip(parents, positions[1:]):
        radix = stats.edge_type_stats(traversal).max_degree + 1
        parent_column = columns[parent_position]
        child_column = columns[position]
        for index in range(size):
            rank = ranks_of(parent_column[index], traversal)[child_column[index]]
            sort_keys[index] = sort_keys[index] * radix + rank
    permutation = sorted(range(size), key=sort_keys.__getitem__)
    attributes = [relation.attributes[position] for position in positions]
    out = [
        [columns[position][index] for index in permutation]
        for position in positions
    ]
    return GraphRelation.from_columns(attributes, out)


# ----------------------------------------------------------------------
# Incremental action-delta planning (the session refinement fast path)
# ----------------------------------------------------------------------
# A browsing session is a chain of small refinements: almost every action
# produces a pattern that is a *monotone delta* of the previous one — the
# same tree with one more condition (filter / nfilter), one more node and
# edge (pivot / see-all), or just another primary (shift). The DeltaPlanner
# recognizes those shapes and answers them from the previous materialized
# relation, so per-action cost scales with |current ETable| instead of
# |database|. Only non-monotone actions (condition relaxation or removal,
# a different table, a rewired edge) fall back to the full planner.


@dataclass(frozen=True)
class DeltaPlan:
    """One classified refinement delta between two consecutive patterns.

    ``kind`` is the delta taxonomy:

    * ``replay``        — identical pattern (e.g. a revert re-executing the
                          current step): the previous relation *is* the
                          answer, untouched;
    * ``reorder``       — same tree, different primary (a ``shift`` pivot):
                          same tuple set, re-ranked into the new reference
                          order — zero joins, zero selections;
    * ``select``        — conditions were appended to already-bound nodes
                          (filter / nfilter): a pure row-selection over the
                          previous relation, no joins at all;
    * ``extend``        — exactly one new node + connecting edge (a
                          neighbor pivot): one delta join using the previous
                          relation as the prefix;
    * ``select+extend`` — both at once (see-all: select the clicked row,
                          then add/shift the column's edge).
    """

    kind: str
    selections: tuple[tuple[str, Condition], ...] = ()
    extension: tuple[str, str, str] | None = None  # (left key, traversal, new key)
    order_preserved: bool = False

    def describe(self) -> str:
        if self.kind == "replay":
            return "replay (previous relation returned unchanged)"
        if self.kind == "reorder":
            return "reorder (primary shifted; previous relation re-ranked)"
        parts = []
        if self.selections:
            keys = sorted({key for key, _ in self.selections})
            parts.append(
                f"row-select {len(self.selections)} new condition(s) "
                f"on {', '.join(keys)}"
            )
        if self.extension is not None:
            left_key, traversal, new_key = self.extension
            parts.append(f"delta join {left_key} -[{traversal}]-> {new_key}")
        return f"{self.kind}: " + "; ".join(parts)


def classify_delta(
    previous: QueryPattern,
    pattern: QueryPattern,
    graph: InstanceGraph,
) -> DeltaPlan | None:
    """Classify ``pattern`` as a monotone delta of ``previous`` (or None).

    Monotone means the new pattern's matches are derivable from the old
    pattern's full relation without re-matching: every old node keeps its
    type and its exact condition list as a prefix (new conditions may only
    be *appended* — that is how ``operators.select`` accretes filters), no
    node or edge disappears, and at most one new node arrives, connected to
    the old tree by exactly one traversable edge. Anything else — condition
    relaxation, a different table, a rewired edge — returns None and the
    caller replans from scratch.
    """
    prev_nodes = {node.key: node for node in previous.nodes}
    new_keys = {node.key for node in pattern.nodes}
    if any(key not in new_keys for key in prev_nodes):
        return None  # a node was removed: shrinking is not monotone
    added = [node for node in pattern.nodes if node.key not in prev_nodes]
    if len(added) > 1:
        return None  # more than one action's worth of growth
    prev_edges = {
        (edge.edge_type, edge.source_key, edge.target_key)
        for edge in previous.edges
    }
    added_edges = [
        edge
        for edge in pattern.edges
        if (edge.edge_type, edge.source_key, edge.target_key) not in prev_edges
    ]
    if len(pattern.edges) - len(added_edges) != len(previous.edges):
        return None  # an edge was removed or rewired
    selections: list[tuple[str, Condition]] = []
    for node in pattern.nodes:
        old = prev_nodes.get(node.key)
        if old is None:
            continue
        if node.type_name != old.type_name:
            return None
        old_tokens = [c.cache_token() for c in old.conditions]
        new_tokens = [c.cache_token() for c in node.conditions]
        if new_tokens[: len(old_tokens)] != old_tokens:
            return None  # a condition changed or was relaxed
        selections.extend(
            (node.key, condition)
            for condition in node.conditions[len(old.conditions):]
        )
    extension: tuple[str, str, str] | None = None
    if added:
        if len(added_edges) != 1:
            return None
        node = added[0]
        edge = added_edges[0]
        if edge.source_key == node.key and edge.target_key in prev_nodes:
            left_key = edge.target_key
        elif edge.target_key == node.key and edge.source_key in prev_nodes:
            left_key = edge.source_key
        else:
            return None
        traversal = _traversal_edge_name(graph, edge, toward_key=node.key)
        if traversal is None:
            return None  # direction not adjacency-indexed
        extension = (left_key, traversal, node.key)
    elif added_edges:
        return None  # a new edge between existing nodes would cycle the tree
    if extension is None and not selections:
        kind = (
            "replay"
            if pattern.primary_key == previous.primary_key
            else "reorder"
        )
    elif extension is None:
        kind = "select"
    elif not selections:
        kind = "extend"
    else:
        kind = "select+extend"
    # A pure selection over a reference-ordered relation stays reference-
    # ordered (filtering preserves relative order, and the rank key is a
    # function of primary + edges, which did not change); everything else
    # needs a restore_reference_order pass.
    order_preserved = (
        kind in ("replay", "select")
        and pattern.primary_key == previous.primary_key
    )
    return DeltaPlan(
        kind=kind,
        selections=tuple(selections),
        extension=extension,
        order_preserved=order_preserved,
    )


def _enumeration_cost(node, stats: GraphStatistics) -> float:
    """Estimated rows the full planner must touch to enumerate one node's
    candidate set: identity conditions are O(ids), equalities O(bucket),
    everything else is a full type scan."""
    condition = conjoin_conditions(node.conditions)
    cardinality = float(stats.cardinality(node.type_name))
    if condition is None:
        return cardinality
    identity = _identity_ids(condition)
    if identity is not None:
        return float(len(identity))
    if _equality_attribute(condition) is not None:
        return max(
            1.0,
            cardinality
            * estimate_selectivity(condition, node.type_name, stats),
        )
    return cardinality


def estimate_replan_cost(
    pattern: QueryPattern,
    graph: InstanceGraph,
    stats: GraphStatistics | None = None,
) -> float:
    """Estimated rows the full planner touches executing ``pattern``:
    candidate enumeration per node plus the per-step join growth. Uses the
    per-bucket equality selectivities, so a super-selective new filter (an
    identity click, an indexed equality) is priced exactly."""
    stats = stats or graph.statistics()
    cost = sum(_enumeration_cost(node, stats) for node in pattern.nodes)
    if len(pattern.nodes) > 1:
        plan = build_plan(pattern, graph, stats=stats)
        cost += sum(
            step.est_rows for step in plan.steps if step.kind == "join"
        )
    return max(1.0, cost)


def estimate_delta_cost(
    delta: DeltaPlan,
    prev_rows: int,
    pattern: QueryPattern,
    graph: InstanceGraph,
    stats: GraphStatistics | None = None,
) -> float:
    """Estimated rows the delta path touches: each appended selection scans
    the (shrinking, but conservatively: full) previous relation; an
    extension probes each prefix row's adjacency; a lost reference order
    costs one more pass for the restoration sort."""
    stats = stats or graph.statistics()
    cost = 0.0
    if delta.selections:
        cost += float(prev_rows) * len(delta.selections)
    if delta.extension is not None:
        _, traversal, new_key = delta.extension
        fanout = max(1.0, stats.edge_type_stats(traversal).avg_degree)
        cost += prev_rows * fanout
        node = pattern.node(new_key)
        if node.conditions:
            cost += _enumeration_cost(node, stats)
    if not delta.order_preserved:
        cost += float(prev_rows)
    return max(1.0, cost)


def _delta_select(
    relation: GraphRelation,
    key: str,
    condition: Condition,
    graph: InstanceGraph,
) -> GraphRelation:
    """``σ`` over one attribute of a materialized relation, delta-tuned.

    Unlike the generic :func:`repro.tgm.graph_relation.selection` (which
    evaluates per *row*), rows are kept by membership of their node in the
    column type's :func:`condition_ids` set — on a joined relation the same
    primary node appears once per join partner, and the set answers every
    duplicate with one hash probe.
    """
    position = relation.position(key)
    columns = relation.columns_view()
    column = columns[position]
    matching = condition_ids(
        condition, graph, relation.attributes[position].type_name
    )
    kept = [
        index for index, node_id in enumerate(column) if node_id in matching
    ]
    if len(kept) == len(column):
        return relation
    out = [[col[index] for index in kept] for col in columns]
    return GraphRelation.from_columns(list(relation.attributes), out)


@dataclass
class DeltaReport:
    """What one delta execution actually did (for incremental stats)."""

    kind: str = ""
    rows_in: int = 0
    rows_out: int = 0
    rows_touched: int = 0


def execute_delta(
    delta: DeltaPlan,
    prev_relation: GraphRelation,
    pattern: QueryPattern,
    graph: InstanceGraph,
) -> tuple[GraphRelation, DeltaReport]:
    """Derive ``m(pattern)`` from the previous pattern's full relation.

    Selections keep the rows whose node is in the condition's set; an
    extension runs exactly one delta join. The output
    is in engine order unless ``delta.order_preserved``; callers restore
    the reference order exactly as the full planner does.
    """
    report = DeltaReport(kind=delta.kind, rows_in=len(prev_relation))
    relation = prev_relation
    for key, condition in delta.selections:
        report.rows_touched += len(relation)
        relation = _delta_select(relation, key, condition, graph)
    if delta.extension is not None:
        left_key, traversal, new_key = delta.extension
        node = pattern.node(new_key)
        condition = conjoin_conditions(node.conditions)
        candidate_set: dict[int, None] | None = None
        if condition is not None:
            candidate_set = dict.fromkeys(
                candidate_ids(graph, node.type_name, condition)
            )
        report.rows_touched += len(relation)
        relation = _delta_join(
            relation, graph, left_key, traversal, new_key,
            node.type_name, candidate_set,
        )
    report.rows_out = len(relation)
    return relation, report


class DeltaPlanner:
    """Plans refinement actions as deltas over the previous result.

    ``plan`` classifies the new pattern against the previous one and gates
    the delta behind the cost model: when the full planner is estimated
    strictly cheaper (e.g. the previous relation is huge and the new filter
    is an indexed identity probe), it returns ``(None, reason)`` and the
    caller replans — both paths are exact, so the gate is purely a
    performance decision. ``execute`` runs the chosen delta.
    """

    # The replan estimate must undercut the delta estimate by this factor
    # before the planner abandons the delta: both estimates count *rows*,
    # but a replanned row is much more expensive than a delta row (fresh
    # candidate enumeration, full joins, and the restoration sort, versus
    # set-membership probes over an already-materialized relation). The
    # gate exists for the pathological order-of-magnitude cases — a huge
    # previous relation against an indexed identity probe — not for
    # coin-flip margins.
    REPLAN_BIAS = 4.0

    def __init__(self, graph: InstanceGraph) -> None:
        self.graph = graph

    def plan(
        self,
        previous: QueryPattern | None,
        prev_rows: int,
        pattern: QueryPattern,
    ) -> tuple[DeltaPlan | None, str | None]:
        """(delta, fallback reason) — ``delta is None`` means replan."""
        if previous is None:
            return None, "no previous result to delta from"
        delta = classify_delta(previous, pattern, self.graph)
        if delta is None:
            return None, "non-monotone action (condition relaxed, node/edge removed, or new table)"
        stats = self.graph.statistics()
        delta_cost = estimate_delta_cost(
            delta, prev_rows, pattern, self.graph, stats
        )
        replan_cost = estimate_replan_cost(pattern, self.graph, stats)
        if replan_cost * self.REPLAN_BIAS < delta_cost:
            return None, (
                f"cost model preferred replan "
                f"(est {replan_cost:.0f} rows vs delta {delta_cost:.0f})"
            )
        return delta, None

    def execute(
        self,
        delta: DeltaPlan,
        prev_relation: GraphRelation,
        pattern: QueryPattern,
    ) -> tuple[GraphRelation, DeltaReport]:
        return execute_delta(delta, prev_relation, pattern, self.graph)
