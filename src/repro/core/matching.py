"""Instance matching (Definition 4, Section 5.4.1).

Given a query pattern ``Q``, the matching function ``m(Q)`` returns a graph
relation whose tuples are lists of node instances — one attribute per
pattern node — connected by the pattern's edges and satisfying every node's
selection conditions:

    m(Q) = σ_C1(R1) *p1 σ_C2(R2) *p2 ... *pn-1 σ_Cn(Rn)

:func:`match` is the reference pipeline: BFS order from the primary node,
full base-relation scans, left-deep materializing joins. It is kept simple
and obviously correct, because it is the equivalence oracle for
everything else. The planner (``repro.core.planner``) answers the same
function behind :class:`repro.core.cache.CachingExecutor`, which every
planned ETable, one-shot or in a session, is built through.

The pattern is a tree, so a BFS order from the primary node guarantees each
join connects the new node to the already-joined prefix. Selections are
applied to each base relation *before* its join (a pushdown the formula
already implies).
"""

from __future__ import annotations

from repro.errors import InvalidQueryPattern
from repro.tgm.conditions import conjoin_conditions
from repro.tgm.graph_relation import GraphRelation, base_relation, join, selection
from repro.tgm.instance_graph import InstanceGraph
from repro.core.query_pattern import QueryPattern


def match(pattern: QueryPattern, graph: InstanceGraph) -> GraphRelation:
    """Evaluate ``m(Q)`` over the instance graph (reference evaluator)."""
    pattern.validate(graph.schema)
    order = pattern.traversal_order()
    if len(order) != len(pattern.nodes):  # pragma: no cover - validate() caught it
        raise InvalidQueryPattern("pattern is not connected")

    result: GraphRelation | None = None
    for key, edge in order:
        node = pattern.node(key)
        relation = base_relation(graph, node.type_name, key=key)
        condition = conjoin_conditions(node.conditions)
        if condition is not None:
            relation = selection(relation, key, condition, graph)
        if result is None:
            result = relation
            continue
        assert edge is not None  # every non-root BFS entry has its edge
        if edge.target_key == key:
            # Prefix holds the edge's source: join forward.
            result = join(
                result,
                relation,
                edge.edge_type,
                left_key=edge.source_key,
                right_key=key,
                graph=graph,
            )
        else:
            # Prefix holds the edge's target: traverse the reverse twin.
            reverse = graph.schema.reverse_of(edge.edge_type)
            result = join(
                result,
                relation,
                reverse.name,
                left_key=edge.target_key,
                right_key=key,
                graph=graph,
            )
    assert result is not None  # validate() guarantees >= 1 node
    return result
