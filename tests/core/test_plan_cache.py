"""Pattern normalization + the fleet-wide compiled-plan cache.

Three properties anchor the tentpole:

1. **Round-trip**: for seeded random patterns over all three datasets,
   ``normalize_pattern(p).bind() == p`` exactly — lifting the constants
   out and binding them back is the identity, so executing a rebound
   cached plan can never change results.
2. **Sharing**: two patterns that differ only in their constants (the
   year filtered on, the LIKE fragment, the IN list values) normalize to
   the *same* key — the whole point: one compiled plan serves every user
   filtering the same shape.
3. **Invalidation**: a graph mutation drops every compiled plan (join
   order is a statistics property, and statistics moved).

Plus the PR's satellite regression: the whole-pattern result cache used
to key on ``cache_token`` order, so ``A & B`` and ``B & A`` — the same
selection — missed each other. The canonical key sorts conjunct and
disjunct tokens, so they now hit.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cache import CachingExecutor, CompiledPlanCache, pattern_cache_key
from repro.core.planner import (
    PlanParameter,
    build_plan,
    canonical_pattern_key,
    normalize_pattern,
)
from repro.core.query_pattern import PatternEdge, PatternNode, single_node_pattern
from repro.tgm.conditions import (
    AndCondition,
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    NeighborSatisfies,
    NodeIn,
    NodeIs,
    NotCondition,
    OrCondition,
)

PATTERNS_PER_DATASET = 40


@pytest.fixture(params=["academic", "movies", "toy"])
def dataset(request):
    return request.getfixturevalue(request.param)


# ----------------------------------------------------------------------
# Random pattern generation (shapes + every liftable condition kind)
# ----------------------------------------------------------------------
def _random_leaf(rng, graph, type_name):
    nodes = graph.nodes_of_type(type_name)
    if not nodes:
        return None
    sample = rng.choice(nodes)
    attributes = [a for a, v in sample.attributes.items() if v is not None]
    kind = rng.choice(["compare", "like", "in", "node_is", "node_in"])
    if kind in ("compare", "like", "in") and not attributes:
        kind = "node_is"
    if kind == "compare":
        attribute = rng.choice(attributes)
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return AttributeCompare(attribute, op, sample.attributes[attribute])
    if kind == "like":
        attribute = rng.choice(attributes)
        text = str(sample.attributes[attribute])
        piece = text[: rng.randint(1, 3)] or "a"
        return AttributeLike(attribute, f"%{piece}%", negate=rng.random() < 0.3)
    if kind == "in":
        attribute = rng.choice(attributes)
        picks = rng.sample(nodes, min(rng.randint(1, 4), len(nodes)))
        values = tuple(
            {sample.attributes[attribute],
             *[n.attributes.get(attribute) for n in picks
               if n.attributes.get(attribute) is not None]}
        )
        return AttributeIn(attribute, values)
    if kind == "node_is":
        return NodeIs(sample.node_id)
    picks = rng.sample(nodes, min(rng.randint(1, 5), len(nodes)))
    return NodeIn([node.node_id for node in picks])


def _random_condition(rng, graph, type_name, depth=0):
    """A random condition tree: leaves plus and/or/not/neighbor combinators."""
    if depth < 2 and rng.random() < 0.4:
        combinator = rng.choice(["and", "or", "not", "neighbor"])
        if combinator in ("and", "or"):
            operands = [
                _random_condition(rng, graph, type_name, depth + 1)
                for _ in range(rng.randint(2, 3))
            ]
            operands = tuple(o for o in operands if o is not None)
            if len(operands) >= 2:
                cls = AndCondition if combinator == "and" else OrCondition
                return cls(operands)
        elif combinator == "not":
            inner = _random_condition(rng, graph, type_name, depth + 1)
            if inner is not None:
                return NotCondition(inner)
        else:
            edges = graph.schema.edges_from(type_name)
            if edges:
                edge = rng.choice(edges)
                inner = _random_condition(rng, graph, edge.target, depth + 1)
                if inner is not None:
                    return NeighborSatisfies(edge.name, inner)
    return _random_leaf(rng, graph, type_name)


def _random_pattern(rng, tgdb, max_nodes=4):
    schema, graph = tgdb.schema, tgdb.graph
    populated = [
        node_type.name
        for node_type in schema.node_types
        if graph.node_ids_of_type(node_type.name)
    ]
    pattern = single_node_pattern(schema, rng.choice(populated))
    for _ in range(rng.randrange(max_nodes)):
        anchor_key = rng.choice([node.key for node in pattern.nodes])
        edges = schema.edges_from(pattern.node(anchor_key).type_name)
        if not edges:
            continue
        edge = rng.choice(edges)
        new_key = pattern.fresh_key(edge.target)
        pattern = pattern.with_node(
            PatternNode(new_key, edge.target),
            PatternEdge(edge.name, anchor_key, new_key),
        )
    for node in list(pattern.nodes):
        if rng.random() < 0.7:
            condition = _random_condition(rng, graph, node.type_name)
            if condition is not None:
                pattern = pattern.with_conditions(node.key, [condition])
    return pattern.with_primary(rng.choice([n.key for n in pattern.nodes]))


# ----------------------------------------------------------------------
# Property 1: bind(normalize(p)) == p
# ----------------------------------------------------------------------
def test_normalize_bind_round_trip(dataset):
    rng = random.Random(20260807)
    for _ in range(PATTERNS_PER_DATASET):
        pattern = _random_pattern(rng, dataset)
        normalized = normalize_pattern(pattern)
        assert normalized.bind() == pattern
        assert normalized.bind(normalized.params) == pattern
        # The key is parameter-free: no concrete constant may leak in
        # (PlanParameter renders as "?", so this catches unlifted values).
        for value in normalized.params:
            assert not isinstance(value, PlanParameter)


# ----------------------------------------------------------------------
# Property 2: constants don't change the key; shape does
# ----------------------------------------------------------------------
def _paper_year_pattern(tgdb, year, op="="):
    pattern = single_node_pattern(tgdb.schema, "Papers")
    return pattern.with_conditions(
        pattern.primary_key, [AttributeCompare("year", op, year)]
    )


def test_different_constants_same_key(toy):
    for left, right, same in [
        (_paper_year_pattern(toy, 2006), _paper_year_pattern(toy, 2010), True),
        (_paper_year_pattern(toy, 2006), _paper_year_pattern(toy, 2006, op=">"), False),
    ]:
        left_key = normalize_pattern(left).key
        right_key = normalize_pattern(right).key
        assert (left_key == right_key) is same


def test_in_arity_does_not_change_key(toy):
    pattern = single_node_pattern(toy.schema, "Papers")
    short = pattern.with_conditions(
        pattern.primary_key, [AttributeIn("year", (2006,))]
    )
    long = pattern.with_conditions(
        pattern.primary_key, [AttributeIn("year", (2006, 2007, 2010))]
    )
    # The whole value tuple is one parameter, so list length is a
    # constant, not shape — both normalize to the same compiled plan.
    assert normalize_pattern(short).key == normalize_pattern(long).key
    assert normalize_pattern(short).bind() == short
    assert normalize_pattern(long).bind() == long


# ----------------------------------------------------------------------
# Satellite regression: operand order must not split the result cache
# ----------------------------------------------------------------------
def _and_patterns(tgdb):
    a = AttributeCompare("year", ">=", 2006)
    b = AttributeLike("title", "%a%")
    pattern = single_node_pattern(tgdb.schema, "Papers")
    forward = pattern.with_conditions(pattern.primary_key,
                                      [AndCondition((a, b))])
    reordered = pattern.with_conditions(pattern.primary_key,
                                        [AndCondition((b, a))])
    return forward, reordered


def test_reordered_and_operands_share_cache_key(toy):
    forward, reordered = _and_patterns(toy)
    assert forward != reordered  # genuinely different pattern objects
    assert pattern_cache_key(forward) == pattern_cache_key(reordered)
    assert canonical_pattern_key(forward) == canonical_pattern_key(reordered)


def test_reordered_and_operands_hit_result_cache(toy):
    forward, reordered = _and_patterns(toy)
    executor = CachingExecutor(toy.graph)
    first = executor.match(forward)
    assert executor.stats.misses == 1
    second = executor.match(reordered)
    assert executor.stats.hits == 1  # used to miss: token order differed
    assert second.tuples == first.tuples


# ----------------------------------------------------------------------
# The compiled-plan cache itself
# ----------------------------------------------------------------------
def test_executor_shares_plans_across_constants(toy):
    executor = CachingExecutor(toy.graph)
    executor.match(_paper_year_pattern(toy, 2006))
    executor.match(_paper_year_pattern(toy, 2010))
    plan_stats = executor.stats_payload()["plan_cache"]
    assert plan_stats["misses"] == 1  # first compile
    assert plan_stats["hits"] == 1  # second pattern rebinds the same plan
    assert plan_stats["entries"] == 1
    # Distinct constants are distinct *results*: the relation cache
    # missed twice even though the plan was shared.
    assert executor.stats.misses == 2


def test_rebound_plan_executes_callers_conditions(toy):
    executor = CachingExecutor(toy.graph)
    relation_2006 = executor.match(_paper_year_pattern(toy, 2006))
    relation_2009 = executor.match(_paper_year_pattern(toy, 2009))
    years_2006 = {toy.graph.node(row[0]).attributes["year"]
                  for row in relation_2006.tuples}
    years_2009 = {toy.graph.node(row[0]).attributes["year"]
                  for row in relation_2009.tuples}
    assert years_2006 == {2006}
    assert years_2009 == {2009}


def _fresh_toy():
    from repro.datasets.academic import default_label_overrides
    from repro.datasets.toy import generate_toy
    from repro.translate import translate_database

    return translate_database(
        generate_toy(),
        categorical_attributes={"Institutions": ["country"],
                                "Papers": ["year"]},
        label_overrides=default_label_overrides(),
    )


def test_graph_mutation_invalidates_compiled_plans():
    tgdb = _fresh_toy()  # private graph: this test mutates it
    executor = CachingExecutor(tgdb.graph)
    pattern = _paper_year_pattern(tgdb, 2006)
    executor.match(pattern)
    assert executor.stats_payload()["plan_cache"]["entries"] == 1
    tgdb.graph.add_node("Papers", {"title": "new", "year": 2026})
    assert tgdb.graph.version > 0
    executor.invalidate()  # what every graph-write surface calls
    executor.match(pattern)
    plan_stats = executor.stats_payload()["plan_cache"]
    assert plan_stats["hits"] == 0  # the pre-write plan was dropped
    assert plan_stats["misses"] == 2
    # And version-binding alone (no explicit invalidate) also drops them:
    cache = CompiledPlanCache(tgdb.graph)
    normalized = normalize_pattern(pattern)
    cache.put(normalized.key, build_plan(pattern, tgdb.graph))
    tgdb.graph.add_node("Papers", {"title": "x", "year": 1})
    assert cache.get(normalized.key, pattern) is None
    assert cache.stats()["invalidations"] == 1


def test_plan_cache_lru_eviction(toy):
    cache = CompiledPlanCache(toy.graph, max_entries=2)
    patterns = [_paper_year_pattern(toy, 2006, op=op) for op in ("=", "<", ">")]
    for pattern in patterns:
        normalized = normalize_pattern(pattern)
        cache.put(normalized.key,
                  build_plan(pattern, toy.graph))
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    oldest = normalize_pattern(patterns[0])
    assert cache.get(oldest.key, patterns[0]) is None
