"""Plan keys + the fleet-wide compiled-plan cache.

Two properties anchor the cache:

1. **Sharing**: two patterns that differ only in their constants (the
   year filtered on, the LIKE fragment, the IN list values) get the
   *same* plan key — the whole point: one compiled plan serves every user
   filtering the same shape. Shape (operators, edges, identity probes)
   still splits keys.
2. **Invalidation**: a graph mutation drops every compiled plan (join
   order is a statistics property, and statistics moved).

Plus a regression: the whole-pattern result cache used to key on
``cache_token`` order, so ``A & B`` and ``B & A`` — the same selection —
missed each other. The canonical key sorts conjunct and disjunct tokens,
so they now hit.
"""

from __future__ import annotations

from repro.core.cache import CachingExecutor, CompiledPlanCache, pattern_cache_key
from repro.core.planner import build_plan, canonical_pattern_key, plan_key
from repro.core.query_pattern import single_node_pattern
from repro.tgm.conditions import (
    AndCondition,
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    LabelLike,
    NeighborSatisfies,
    NodeIs,
    NotCondition,
)


# ----------------------------------------------------------------------
# Sharing: constants don't change the key; shape does
# ----------------------------------------------------------------------
def _paper_pattern(tgdb, condition):
    pattern = single_node_pattern(tgdb.schema, "Papers")
    return pattern.with_conditions(pattern.primary_key, [condition])


def _paper_year_pattern(tgdb, year, op="="):
    return _paper_pattern(tgdb, AttributeCompare("year", op, year))


def _not_at(acronym, edge="Papers->Conferences"):
    return NotCondition(NeighborSatisfies(
        edge, AttributeCompare("acronym", "=", acronym)))


def test_different_constants_same_key(toy):
    for left, right, same in [
        (AttributeCompare("year", "=", 2006),
         AttributeCompare("year", "=", 2010), True),
        (AttributeCompare("year", "=", 2006),
         AttributeCompare("year", ">", 2006), False),
        (AttributeLike("title", "%graph%"),
         AttributeLike("title", "%query%"), True),
        (AttributeLike("title", "%graph%"),
         AttributeLike("title", "%graph%", negate=True), False),
        (LabelLike("%graph%"), LabelLike("%query%"), True),
        (LabelLike("%graph%"), AttributeLike("title", "%graph%"), False),
        (_not_at("SIGMOD"), _not_at("KDD"), True),
        (_not_at("SIGMOD"), _not_at("SIGMOD", "Papers->Papers: year"),
         False),
        (NotCondition(_not_at("SIGMOD")), _not_at("SIGMOD"), False),
        # An identity probe is shape: drill-downs into different nodes
        # never share a plan.
        (NodeIs(1), NodeIs(4), False),
        (NodeIs(1), NodeIs(1, label="ignored"), True),
    ]:
        left_key = plan_key(_paper_pattern(toy, left))
        right_key = plan_key(_paper_pattern(toy, right))
        assert (left_key == right_key) is same, (left, right)


def test_in_arity_does_not_change_key(toy):
    pattern = single_node_pattern(toy.schema, "Papers")
    short = pattern.with_conditions(
        pattern.primary_key, [AttributeIn("year", (2006,))]
    )
    long = pattern.with_conditions(
        pattern.primary_key, [AttributeIn("year", (2006, 2007, 2010))]
    )
    # The whole value tuple is one placeholder, so list length is a
    # constant, not shape — both get the same compiled plan.
    assert plan_key(short) == plan_key(long)


# ----------------------------------------------------------------------
# Regression: operand order must not split the result cache
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


def test_plan_cache_lru_eviction(toy):
    cache = CompiledPlanCache(max_entries=2)
    patterns = [_paper_year_pattern(toy, 2006, op=op) for op in ("=", "<", ">")]
    for pattern in patterns:
        cache.put(plan_key(pattern), build_plan(pattern, toy.graph))
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    assert cache.get(plan_key(patterns[0]), patterns[0]) is None
