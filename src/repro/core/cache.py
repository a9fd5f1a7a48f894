"""Reuse of intermediate results — the paper's future-work item #2.

Section 9: "(2) accelerating the execution speed of updated queries (e.g.,
by reusing intermediate results)". Incremental query building makes this
especially effective: the user's next pattern usually *extends* the current
one, so results recur constantly (every revert re-executes an old pattern
verbatim).

:meth:`CachingExecutor.execute` builds an ETable in one of two ways, both
equal to the reference table (``match()``, then ``transform``):

* a **one-node pattern** pivots its flat relation (:meth:`CachingExecutor.
  match`), which holds one tuple per row, so nothing repeats;
* a pattern with **more nodes** never builds the flat join, whose tuples
  repeat cells across many-to-many edges (the reason ETable exists, and
  the reason Section 6.2 partitions the monolithic SQL). The planner
  shrinks each node's candidate set with semi-joins along the compiled
  plan (:func:`repro.core.planner.reduce_plan`), and only the displayed
  rows are walked through those sets
  (:func:`repro.core.transform.transform_reduced`).

Three caches sit under it:

* a **whole-pattern store** holding each flat relation ``match()``
  computed, keyed by :func:`pattern_cache_key`, and each semi-join
  reduction, under a key no flat relation uses (exact repeats, e.g.
  reverts, skip execution);
* a **prefix store** keyed by canonical *subpattern* holding every
  intermediate relation ``match()`` materializes: extending a pattern by
  one node finds the previous pattern's full result as a cached prefix and
  executes only the delta join. ``match()`` serves one-node tables, the
  incremental engine's replans and direct callers;
* a **compiled-plan cache** (:class:`CompiledPlanCache`) shared by both
  execution paths.

Candidate sets are not cached: every execution evaluates its conditions
as sets of node ids (:func:`repro.core.planner.condition_ids`), so the
executor's memory stays within the size budgets of the stores above.

Because patterns, conditions, and the instance graph are immutable during a
browsing session, cached entries stay valid; the ETable is rebuilt per
call so presentation state never leaks between hits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.analysis.runtime import assert_locked
from repro.tgm.graph_relation import GraphRelation
from repro.tgm.instance_graph import InstanceGraph
from repro.core.etable import ETable
from repro.core.planner import (
    DeltaPlan,
    DeltaPlanner,
    ExecutionReport,
    Plan,
    PrefixStore,
    build_plan,
    canonical_pattern_key,
    normalize_pattern,
    reduce_plan,
    restore_reference_order,
    execute_plan,
)
from repro.core.query_pattern import QueryPattern
from repro.core.transform import transform, transform_reduced


def pattern_cache_key(pattern: QueryPattern) -> tuple:
    """A canonical, hashable rendering of a pattern.

    Node order is normalized by key and commutative combinators render
    canonically (see :func:`repro.core.planner.canonical_pattern_key`), so
    logically identical patterns built in different orders — including an
    ``AndCondition`` with reordered operands — share cache entries.
    Condition tokens build on ``cache_token()`` strings (deterministic for
    all condition types, and — unlike ``describe()`` — never dropping
    discriminating detail such as a ``NodeIs`` node id behind a shared
    display label).
    """
    return canonical_pattern_key(pattern)


class CompiledPlanCache:
    """Fleet-wide LRU of compiled :class:`~repro.core.planner.Plan` objects
    keyed by *normalized* pattern (constants lifted out).

    Two users filtering the same shape on different years — or the same
    user refiltering — share one compiled plan: the cache key is
    :attr:`~repro.core.planner.NormalizedPattern.key`, and on a hit the
    cached plan is rebound to the caller's concrete pattern, which is how
    constants are "bound at execution" (the join order and step structure
    are shape-properties; the conditions executed come from the live
    pattern, never the cached one). Per-step ``est_rows`` annotations keep
    the estimates of the pattern that first compiled the plan — cosmetic
    for ``explain``, irrelevant for execution.

    Entries are valid only for the graph snapshot they were planned over:
    every access checks the graph's mutation version and drops the whole
    cache when it moved (statistics — and therefore join order — may have
    changed). Thread-safe behind one lock, like the executor that owns it.
    """

    def __init__(self, graph: InstanceGraph, max_entries: int = 512) -> None:
        self._graph = graph
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, Plan] = OrderedDict()  # guarded-by: self._lock
        self._graph_version = graph.version  # guarded-by: self._lock
        self.hits = 0  # guarded-by: self._lock
        self.misses = 0  # guarded-by: self._lock
        self.evictions = 0  # guarded-by: self._lock
        self.invalidations = 0  # guarded-by: self._lock

    def _check_version(self) -> None:  # requires-lock
        assert_locked(self._lock, "CompiledPlanCache._lock")
        if self._graph_version != self._graph.version:
            self._plans.clear()
            self._graph_version = self._graph.version
            self.invalidations += 1

    def get(self, key: tuple, pattern: QueryPattern) -> Plan | None:
        """The cached plan for ``key``, rebound to ``pattern`` — or None.

        The returned plan shares its (immutable) steps with the cached
        one; only the ``pattern`` field is swapped, so execution evaluates
        the caller's own conditions in the cached join order.
        """
        with self._lock:
            self._check_version()
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self.hits += 1
            self._plans.move_to_end(key)
            return replace(plan, pattern=pattern)

    def put(self, key: tuple, plan: Plan) -> None:
        with self._lock:
            self._check_version()
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def stats(self) -> dict:
        """Counters for ``stats_payload()["plan_cache"]`` (JSON-able)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._plans),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    # Prefix-level reuse: misses that still started from a cached subpattern
    # and how many already-joined pattern nodes they skipped re-executing.
    prefix_hits: int = 0
    reused_nodes: int = 0
    delta_joins: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultLineage(PrefixStore):
    """Per-session store of the reference-ordered relation chain a session's
    history panel implies.

    Every executed action's full relation is retained under its canonical
    pattern key, so revert-heavy browsing is O(1): the history entry's
    pattern looks its relation straight back up instead of re-matching.
    Shares :class:`~repro.core.planner.PrefixStore`'s size-weighted LRU
    eviction accounting (cells = rows × attributes, admission cap) and its
    mutation-version invalidation — a lineage must never serve a relation
    computed over a graph snapshot that no longer exists.
    """

    def __init__(self, graph: InstanceGraph, max_entries: int = 64,
                 max_cells: int | None = 2_000_000) -> None:
        super().__init__(max_entries=max_entries, max_cells=max_cells,
                         graph=graph)


class IncrementalStats:
    """Counters for the incremental engine (thread-safe; JSON-able).

    ``delta_actions`` answered from the previous relation (by kind),
    ``replays`` answered straight from the lineage, ``replans`` that fell
    back to the full planner (and why), plus the rows the delta kernels
    actually touched — the number that should scale with |current ETable|,
    not |database|.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.delta_actions = 0  # guarded-by: self._lock
        self.replays = 0  # guarded-by: self._lock
        self.replans = 0  # guarded-by: self._lock
        self.cost_replans = 0  # guarded-by: self._lock
        self.rows_touched = 0  # guarded-by: self._lock
        self.by_kind: dict[str, int] = {}  # guarded-by: self._lock

    def note_delta(self, kind: str, rows_touched: int) -> None:
        with self._lock:
            self.delta_actions += 1
            self.rows_touched += rows_touched
            self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def note_replay(self) -> None:
        with self._lock:
            self.replays += 1
            self.by_kind["replay"] = self.by_kind.get("replay", 0) + 1

    def note_replan(self, cost_gated: bool) -> None:
        with self._lock:
            self.replans += 1
            if cost_gated:
                self.cost_replans += 1

    @property
    def actions(self) -> int:
        with self._lock:
            return self.delta_actions + self.replays + self.replans

    @property
    def delta_hit_rate(self) -> float:
        """Fraction of executed actions answered without replanning."""
        # One lock scope for numerator and denominator: reading them in
        # two steps can interleave with a note_* increment and report a
        # rate above 1.0 (the unguarded read RPA101 originally flagged).
        with self._lock:
            total = self.delta_actions + self.replays + self.replans
            answered = self.delta_actions + self.replays
            return answered / total if total else 0.0

    def payload(self) -> dict:
        with self._lock:
            total = self.delta_actions + self.replays + self.replans
            answered = self.delta_actions + self.replays
            return {
                "delta_actions": self.delta_actions,
                "replays": self.replays,
                "replans": self.replans,
                "cost_replans": self.cost_replans,
                "rows_touched": self.rows_touched,
                "delta_hit_rate": answered / total if total else 0.0,
                "by_kind": dict(self.by_kind),
            }


class CachingExecutor:
    """Builds ETables over one instance graph, caching per pattern the flat
    relation or the semi-join reduction they come from, and per pattern
    *prefix* the relations ``match()`` joins.

    The executor is safe to share across threads (and therefore across the
    concurrent sessions of ``repro.service``): ``match()`` and
    ``reduce()`` run under one re-entrant lock, so the caches and counters
    stay consistent while the ETable build — which carries per-session
    presentation state — still runs concurrently outside it. Sharing one
    executor between many sessions is exactly the cross-session reuse the
    service layer wants: one user's work becomes another user's cache hit.

    Cache capacity is budgeted by *size* — a relation weighs its rows ×
    attributes cells (see :func:`repro.core.planner.relation_cells`), a
    reduction the ids it holds — not just entry count, so one huge entry
    cannot pin — or flush — the working set.
    """

    def __init__(
        self,
        graph: InstanceGraph,
        max_entries: int = 256,
        max_prefix_entries: int = 512,
        max_cells: int | None = 4_000_000,
        max_prefix_cells: int | None = 4_000_000,
        max_plans: int = 512,
    ) -> None:
        self.graph = graph
        self.max_entries = max_entries
        # Compiled plans are shared across every session this executor
        # serves — the fleet-wide normalized plan cache of ROADMAP item 3.
        self.plans = CompiledPlanCache(graph, max_entries=max_plans)
        self.stats = CacheStats()  # guarded-by: self._lock
        # Both stores are graph-bound: a mutation-version bump drops them on
        # the next lookup, so a mutated graph can never serve stale tuples.
        self.prefixes = PrefixStore(max_entries=max_prefix_entries,  # guarded-by: self._lock
                                    max_cells=max_prefix_cells,
                                    graph=graph)
        # Whole-pattern results share the PrefixStore LRU mechanics (a hit
        # refreshes the entry so hot patterns survive eviction pressure) but
        # live in their own store: flat relations are reference-ordered and
        # keyed with their primary node, reductions keyed without it.
        self._store = PrefixStore(max_entries=max_entries,  # guarded-by: self._lock
                                  max_cells=max_cells,
                                  graph=graph)
        self._lock = threading.RLock()

    def match(self, pattern: QueryPattern) -> GraphRelation:
        with self._lock:
            key = pattern_cache_key(pattern)
            cached = self._store.get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
            self.stats.misses += 1
            pattern.validate(self.graph.schema)
            report = ExecutionReport()
            relation = execute_plan(
                self._plan(pattern),
                self.graph,
                store=self.prefixes,
                report=report,
            )
            if report.reused_nodes:
                self.stats.prefix_hits += 1
                self.stats.reused_nodes += report.reused_nodes
            self.stats.delta_joins += report.delta_joins
            result = restore_reference_order(pattern, relation, self.graph)
            self._store.put(key, result)
            return result

    def reduce(self, pattern: QueryPattern) -> dict[str, frozenset[int] | None]:
        """The semi-join reduction of ``pattern``
        (:func:`repro.core.planner.reduce_plan`), cached.

        It lives in the whole-pattern store under a key no flat relation
        uses. The reduction does not depend on which node is primary, so
        the key leaves the primary out and a shift between two nodes of
        one pattern reuses it. An entry weighs the ids it holds. Callers
        must not mutate the returned mapping: it is shared.
        """
        with self._lock:
            key = ("reduction", pattern_cache_key(pattern)[1:])
            cached = self._store.get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
            self.stats.misses += 1
            pattern.validate(self.graph.schema)
            reduced = reduce_plan(self._plan(pattern), self.graph)
            self._store.put(key, reduced, weight=sum(
                len(ids) for ids in reduced.values() if ids is not None
            ))
            return reduced

    def _plan(self, pattern: QueryPattern) -> Plan:
        """The compiled plan of ``pattern``'s normalized shape.

        Patterns sharing a normalized shape (same structure, any
        constants) reuse one plan, with this pattern's constants bound at
        execution by the rebind inside ``CompiledPlanCache.get``.
        """
        normalized = normalize_pattern(pattern)
        plan = self.plans.get(normalized.key, pattern)
        if plan is None:
            plan = build_plan(pattern, self.graph)
            self.plans.put(normalized.key, plan)
        return plan

    def execute(
        self, pattern: QueryPattern, row_limit: int | None = None
    ) -> ETable:
        """The ETable of ``pattern``, from the caches where they hold it.

        A one-node pattern pivots its cached flat relation
        (:meth:`match`, then :func:`~repro.core.transform.transform`):
        it holds one tuple per row, so nothing repeats. A pattern with
        more nodes never builds the flat join: its rows are walked through
        the cached semi-join reduction (:meth:`reduce`, then
        :func:`~repro.core.transform.transform_reduced`), outside the
        lock. Both give the reference table (``match()``, then
        ``transform``). ``execute_pattern(engine="planned")`` is this
        method on a fresh executor.
        """
        if len(pattern.nodes) == 1:
            matched = self.match(pattern)
            return transform(pattern, matched, self.graph,
                             row_limit=row_limit)
        return transform_reduced(pattern, self.reduce(pattern), self.graph,
                                 row_limit=row_limit)

    def adopt_result(self, pattern: QueryPattern,
                     relation: GraphRelation,
                     key: tuple | None = None) -> None:
        """Insert an externally-computed exact result (reference-ordered full
        match of ``pattern``) into the whole-pattern cache.

        This is how the incremental engine feeds its delta-derived relations
        back to the shared executor: one session's delta becomes every other
        session's whole-pattern hit. Thread-safe; the caller vouches for
        exactness (the session fuzzer replays shared-executor sessions in
        lockstep, so a wrong adoption diverges immediately).
        """
        with self._lock:
            self._store.put(key or pattern_cache_key(pattern), relation)

    def stats_payload(self) -> dict:  # repro: noqa-RPA101 — lock-free by design, see docstring
        """All cache counters as one JSON-able dict (service ``/v1/stats``).

        Deliberately lock-free: every value is a monotonic counter or a
        point-in-time gauge, and a health probe must not queue behind an
        expensive in-flight ``match()``. Numbers may be a step stale while
        a query executes — fine for introspection.
        """
        # Every ratio below is guarded against a cold cache (zero lookups /
        # zero misses): health probes hit /v1/stats before the first query.
        misses = self.stats.misses
        return {
            "hits": self.stats.hits,
            "misses": misses,
            "hit_rate": self.stats.hit_rate,
            "prefix_hits": self.stats.prefix_hits,
            "prefix_hit_rate": (
                self.stats.prefix_hits / misses if misses else 0.0
            ),
            "reused_nodes": self.stats.reused_nodes,
            "delta_joins": self.stats.delta_joins,
            "results": self._store.stats(),
            "prefixes": self.prefixes.stats(),
            "plan_cache": self.plans.stats(),
        }

    def invalidate(self) -> None:
        """Drop everything (call after mutating the instance graph)."""
        with self._lock:
            self._store.clear()
            self.prefixes.clear()
            self.plans.clear()


class IncrementalExecutor:
    """Per-session incremental engine: ``engine="incremental"``.

    Layers the :class:`~repro.core.planner.DeltaPlanner` over a (shareable)
    :class:`CachingExecutor`. Each ``match`` first consults the session's
    :class:`ResultLineage` (reverts and exact repeats are O(1) lookups),
    then tries to classify the pattern as a monotone delta of the *previous
    action's* relation — a filter becomes a row-selection, a pivot one
    delta join, a shift a re-rank — and only falls back to the base
    executor's full planner for non-monotone actions or when the cost model
    says replanning is cheaper — a fall-back that consults the base's
    :class:`CompiledPlanCache` before planning, so even replans reuse
    normalized compiled plans. Every result (delta or replan) is recorded
    in the lineage and adopted into the base's whole-pattern cache, so
    cross-session reuse still compounds.

    The instance is **per-session** (the lineage and previous-relation
    pointer are a session's private chain); the base executor may be shared
    by many sessions, exactly like the multi-user service shares one
    ``CachingExecutor``.
    """

    def __init__(
        self,
        base: CachingExecutor,
        max_lineage_entries: int = 64,
        max_lineage_cells: int | None = 2_000_000,
    ) -> None:
        self.base = base
        self.graph = base.graph
        self.planner = DeltaPlanner(base.graph)
        self.lineage = ResultLineage(base.graph,
                                     max_entries=max_lineage_entries,
                                     max_cells=max_lineage_cells)
        self.stats = IncrementalStats()
        self.last_delta: DeltaPlan | None = None
        self.last_outcome: str = ""
        self._previous: tuple[QueryPattern, GraphRelation] | None = None
        self._previous_version = base.graph.version

    def _remember(self, pattern: QueryPattern, relation: GraphRelation,
                  key: tuple) -> None:
        self._previous = (pattern, relation)
        self._previous_version = self.graph.version
        self.lineage.put(key, relation)

    def match(self, pattern: QueryPattern) -> GraphRelation:
        if self._previous is not None and (
            self._previous_version != self.graph.version
        ):
            # The graph mutated under the session: the previous relation
            # describes a snapshot that no longer exists (the lineage
            # version guard clears itself on the next lookup).
            self._previous = None
        key = pattern_cache_key(pattern)
        cached = self.lineage.get(key)
        if cached is not None:
            self.stats.note_replay()
            self.last_delta = None
            self.last_outcome = "replay: lineage hit (retained history relation)"
            self._remember(pattern, cached, key)
            return cached
        previous = self._previous
        delta, reason = self.planner.plan(
            previous[0] if previous is not None else None,
            len(previous[1]) if previous is not None else 0,
            pattern,
        )
        if delta is None:
            relation = self.base.match(pattern)
            cost_gated = reason is not None and reason.startswith("cost model")
            self.stats.note_replan(cost_gated)
            self.last_delta = None
            self.last_outcome = f"replan: {reason}"
        else:
            pattern.validate(self.graph.schema)
            assert previous is not None
            relation, report = self.planner.execute(
                delta, previous[1], pattern
            )
            if not delta.order_preserved:
                relation = restore_reference_order(
                    pattern, relation, self.graph
                )
            self.stats.note_delta(delta.kind, report.rows_touched)
            self.last_delta = delta
            self.last_outcome = (
                f"{delta.describe()} "
                f"[{report.rows_in} -> {report.rows_out} rows, "
                f"{report.rows_touched} touched]"
            )
            # Feed the exact result back to the shared whole-pattern cache.
            self.base.adopt_result(pattern, relation, key=key)
        self._remember(pattern, relation, key)
        return relation

    def execute(
        self, pattern: QueryPattern, row_limit: int | None = None
    ) -> ETable:
        """Incremental counterpart of :meth:`CachingExecutor.execute`."""
        matched = self.match(pattern)
        return transform(pattern, matched, self.graph, row_limit=row_limit)

    def stats_payload(self) -> dict:
        """The base executor's payload plus this session's delta counters."""
        payload = self.base.stats_payload()
        payload["incremental_session"] = self.stats.payload()
        payload["lineage"] = self.lineage.stats()
        return payload

    def invalidate(self) -> None:
        """Drop the session chain (the base executor is invalidated by its
        owner — it may be shared)."""
        self.lineage.clear()
        self._previous = None
