"""Unit tests for the incremental action-delta execution engine.

Covers the per-session :class:`~repro.core.cache.IncrementalExecutor`
(delta answering, lineage replays, cost/classification fallbacks, stats),
the :class:`~repro.core.cache.ResultLineage` store, the mutation-version
invalidation regression, and the session surface of
``engine="incremental"``, alone and over a shared executor. Bit-for-bit
equivalence against the other engines at scale lives in
tests/integration/test_session_fuzz.py.
"""

import pytest

from repro.tgm.conditions import AttributeCompare, AttributeLike
from repro.core.cache import (
    CachingExecutor,
    IncrementalExecutor,
    IncrementalStats,
    ResultLineage,
    pattern_cache_key,
)
from repro.core.matching import match
from repro.core.operators import add, initiate, select
from repro.core.session import EtableSession
from repro.service import protocol


def _executor(toy):
    return IncrementalExecutor(CachingExecutor(toy.graph))


class TestIncrementalExecutor:
    def test_filter_answers_as_select_delta(self, toy):
        executor = _executor(toy)
        base_pattern = initiate(toy.schema, "Papers")
        executor.match(base_pattern)  # first action: replan
        filtered = select(base_pattern, AttributeCompare("year", ">", 2005))
        relation = executor.match(filtered)
        assert relation.tuples == match(filtered, toy.graph).tuples
        assert executor.stats.by_kind.get("select") == 1
        assert executor.stats.delta_actions == 1
        assert executor.last_delta is not None
        assert "select" in executor.last_outcome

    def test_pivot_answers_as_extend_delta(self, toy):
        executor = _executor(toy)
        previous = select(initiate(toy.schema, "Papers"),
                          AttributeCompare("year", ">", 2005))
        executor.match(previous)
        extended = add(previous, toy.schema, "Papers->Authors")
        relation = executor.match(extended)
        assert relation.tuples == match(extended, toy.graph).tuples
        assert executor.stats.by_kind.get("extend") == 1

    def test_revert_is_a_lineage_replay(self, toy):
        executor = _executor(toy)
        first = initiate(toy.schema, "Papers")
        second = select(first, AttributeLike("title", "%a%"))
        first_relation = executor.match(first)
        executor.match(second)
        # Revert: the history entry's pattern hits the lineage directly.
        replayed = executor.match(first)
        assert replayed is first_relation
        assert executor.stats.replays == 1
        assert "replay" in executor.last_outcome

    def test_results_feed_the_shared_whole_pattern_cache(self, toy):
        base = CachingExecutor(toy.graph)
        executor = IncrementalExecutor(base)
        previous = initiate(toy.schema, "Papers")
        executor.match(previous)
        filtered = select(previous, AttributeLike("title", "%a%"))
        relation = executor.match(filtered)
        # Another session sharing the base gets a whole-pattern hit for the
        # delta-derived result.
        hits_before = base.stats.hits
        assert base.match(filtered) is relation
        assert base.stats.hits == hits_before + 1

    def test_stats_payload_has_session_and_lineage_sections(self, toy):
        executor = _executor(toy)
        executor.match(initiate(toy.schema, "Papers"))
        payload = executor.stats_payload()
        assert payload["incremental_session"]["replans"] == 1
        assert payload["lineage"]["entries"] == 1
        assert payload["incremental_session"]["delta_hit_rate"] == 0.0
        assert "incremental" not in payload

    def test_invalidate_drops_the_session_chain(self, toy):
        executor = _executor(toy)
        pattern = initiate(toy.schema, "Papers")
        executor.match(pattern)
        executor.invalidate()
        assert len(executor.lineage) == 0
        executor.match(pattern)  # no previous: replans, does not crash
        assert executor.stats.replans == 2


class TestMutationInvalidation:
    """Regression (ISSUE satellite): lineage and prefix caches must drop on
    InstanceGraph mutation-version bumps, mid-session."""

    def _tgdb(self):
        from repro.datasets.academic import default_label_overrides
        from repro.datasets.toy import generate_toy
        from repro.translate import translate_database

        return translate_database(
            generate_toy(),
            categorical_attributes={"Institutions": ["country"],
                                    "Papers": ["year"]},
            label_overrides=default_label_overrides(),
        )

    def test_incremental_session_sees_mid_session_mutation(self):
        tgdb = self._tgdb()
        graph = tgdb.graph
        session = EtableSession(tgdb.schema, graph, engine="incremental")
        session.open("Papers")
        before_rows = len(session.current)
        # Mutate the graph mid-session: a new paper arrives.
        graph.add_node("Papers", {"title": "Freshly Added Paper",
                                  "year": 2024})
        # Re-executing the same pattern must see the new node, not a stale
        # lineage/whole-pattern entry.
        session.revert(0)
        assert len(session.current) == before_rows + 1
        oracle = EtableSession(tgdb.schema, graph, engine="naive")
        oracle.open("Papers")
        assert (protocol.etable_to_json(session.current)
                == protocol.etable_to_json(oracle.current))

    def test_mutation_between_delta_steps_forces_replan(self):
        tgdb = self._tgdb()
        graph = tgdb.graph
        executor = IncrementalExecutor(CachingExecutor(graph))
        pattern = initiate(tgdb.schema, "Papers")
        executor.match(pattern)
        graph.add_node("Papers", {"title": "Another", "year": 2024})
        filtered = select(pattern, AttributeCompare("year", "=", 2024))
        relation = executor.match(filtered)
        # The previous relation predates the mutation, so the delta path is
        # off the table; the replanned result must include the new node.
        assert executor.stats.replans == 2
        assert relation.tuples == match(filtered, graph).tuples
        assert len(relation) >= 1

    def test_lineage_store_invalidates_on_version_bump(self):
        tgdb = self._tgdb()
        graph = tgdb.graph
        lineage = ResultLineage(graph)
        pattern = initiate(tgdb.schema, "Papers")
        key = pattern_cache_key(pattern)
        relation = match(pattern, graph)
        lineage.put(key, relation)
        assert lineage.get(key) is relation
        graph.add_node("Papers", {"title": "X", "year": 1999})
        assert lineage.get(key) is None
        assert lineage.invalidations == 1

    def test_caching_executor_prefixes_invalidate_on_mutation(self):
        tgdb = self._tgdb()
        graph = tgdb.graph
        executor = CachingExecutor(graph)
        pattern = add(initiate(tgdb.schema, "Conferences"),
                      tgdb.schema, "Conferences->Papers")
        executor.match(pattern)
        assert len(executor.prefixes) > 0
        graph.add_node("Papers", {"title": "Y", "year": 2000})
        relation = executor.match(pattern)
        assert relation.tuples == match(pattern, graph).tuples
        assert executor.prefixes.invalidations >= 1


class TestIncrementalStats:
    def test_hit_rate_guards_cold_counters(self):
        stats = IncrementalStats()
        assert stats.delta_hit_rate == 0.0
        payload = stats.payload()
        assert payload["delta_hit_rate"] == 0.0
        assert payload["by_kind"] == {}

    def test_counters_accumulate(self):
        stats = IncrementalStats()
        stats.note_delta("select", rows_touched=10)
        stats.note_delta("extend", rows_touched=5)
        stats.note_replay()
        stats.note_replan(cost_gated=True)
        assert stats.actions == 4
        assert stats.delta_hit_rate == pytest.approx(0.75)
        payload = stats.payload()
        assert payload["rows_touched"] == 15
        assert payload["cost_replans"] == 1
        assert payload["by_kind"] == {"select": 1, "extend": 1, "replay": 1}


class TestSessionSurface:
    def test_incremental_session_replays_like_naive(self, toy):
        def drive(session):
            session.open("Conferences")
            session.filter_attribute("acronym", "=", "SIGMOD")
            session.pivot("Papers")
            session.filter_attribute("year", ">", 2005)
            session.pivot("Authors")
            session.revert(2)
            session.filter_like("title", "%a%")
            return session

        naive = drive(EtableSession(toy.schema, toy.graph, engine="naive"))
        incremental = drive(
            EtableSession(toy.schema, toy.graph, engine="incremental")
        )
        assert (protocol.etable_to_json(naive.current)
                == protocol.etable_to_json(incremental.current))
        assert naive.history_lines() == incremental.history_lines()
        assert incremental._executor.stats.delta_actions > 0

    def test_plan_text_reports_delta_kind(self, toy):
        session = EtableSession(toy.schema, toy.graph, engine="incremental")
        session.open("Papers")
        session.filter_like("title", "%a%")
        text = session.explain_plan()
        assert "incremental:" in text
        assert "last action" in text
        assert "select" in text

    def test_shared_executor_must_match_graph(self, toy):
        from repro.datasets.academic import default_label_overrides
        from repro.datasets.toy import generate_toy
        from repro.translate import translate_database

        other = translate_database(
            generate_toy(),
            categorical_attributes={"Institutions": ["country"],
                                    "Papers": ["year"]},
            label_overrides=default_label_overrides(),
        )
        from repro.errors import InvalidAction

        with pytest.raises(InvalidAction):
            EtableSession(toy.schema, toy.graph, engine="incremental",
                          executor=CachingExecutor(other.graph))

    def test_naive_engine_still_rejects_cache(self, toy):
        from repro.errors import InvalidAction

        with pytest.raises(InvalidAction):
            EtableSession(toy.schema, toy.graph, engine="naive",
                          executor=CachingExecutor(toy.graph))


class TestServiceSurface:
    """Incremental sessions over one shared executor, the way the service
    shares one between the sessions it hosts."""

    def test_incremental_sessions_isolate_lineage_but_share_cache(self, toy):
        shared = CachingExecutor(toy.graph)
        a, b = (
            EtableSession(toy.schema, toy.graph, engine="incremental",
                          executor=shared)
            for _ in range(2)
        )
        for session in (a, b):
            session.open("Papers")
        assert a._executor is not b._executor
        assert a._executor.base is b._executor.base is shared
        # The second session's identical open was a shared-cache hit.
        assert shared.stats.hits >= 1
