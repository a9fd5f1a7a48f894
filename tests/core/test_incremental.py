"""Unit tests for the incremental action-delta execution engine.

Covers the per-session :class:`~repro.core.cache.IncrementalExecutor`
(delta answering, lineage replays, cost/classification fallbacks, stats),
the read-only graph under a planned session, and the session surface of
``engine="incremental"``, alone and over a shared executor. Bit-for-bit
equivalence against the other engines at scale lives in
tests/integration/test_session_fuzz.py.
"""

import pytest

from repro.errors import GraphIntegrityError
from repro.tgm.conditions import AttributeCompare, AttributeLike
from repro.core.cache import (
    CachingExecutor,
    IncrementalExecutor,
    IncrementalStats,
)
from repro.core.matching import match
from repro.core.operators import add, initiate, select
from repro.core.session import EtableSession
from repro.datasets.toy import toy_tgdb
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


class TestGraphReadOnlyOnceQueried:
    """No cache checks the graph for writes: the first planned action makes
    the graph refuse them, while the naive matcher derives nothing."""

    @pytest.mark.parametrize("engine", ["planned", "incremental"])
    def test_a_write_after_the_first_action_raises(self, engine):
        tgdb = toy_tgdb()  # private graph: the test writes to it
        graph = tgdb.graph
        session = EtableSession(tgdb.schema, graph, engine=engine)
        session.open("Papers")
        paper = graph.node_ids_of_type("Papers")[0]
        author = graph.node_ids_of_type("Authors")[-1]
        with pytest.raises(GraphIntegrityError, match="read-only"):
            graph.add_node("Papers", {"title": "Freshly Added Paper",
                                      "year": 2024})
        with pytest.raises(GraphIntegrityError, match="read-only"):
            graph.add_edge("Papers->Authors", paper, author)
        oracle = EtableSession(tgdb.schema, graph, engine="naive")
        for each in (session, oracle):
            each.open("Papers")
            each.filter_attribute("year", ">", 2005)
        assert (protocol.etable_to_json(session.current)
                == protocol.etable_to_json(oracle.current))

    def test_the_naive_matcher_leaves_the_graph_writable(self):
        tgdb = toy_tgdb()
        graph = tgdb.graph
        session = EtableSession(tgdb.schema, graph, engine="naive")
        session.open("Papers")
        before_rows = len(session.current)
        graph.add_node("Papers", {"title": "Freshly Added Paper",
                                  "year": 2024})
        session.revert(0)
        assert len(session.current) == before_rows + 1

    def test_serializing_a_naive_table_leaves_the_graph_writable(self):
        """Shipping a page reads labels into the graph's label table, which
        is no index: the graph still takes a write, and a node added after
        it ships with its own label."""
        tgdb = toy_tgdb()
        graph = tgdb.graph
        session = EtableSession(tgdb.schema, graph, engine="naive")
        session.open("Authors")
        before = protocol.etable_to_json(session.current)
        author = graph.node_ids_of_type("Authors")[0]
        paper = graph.add_node("Papers", {"title": "Freshly Added Paper",
                                          "year": 2024})
        graph.add_edge("Papers->Authors", paper.node_id, author)
        session.revert(0)
        after = protocol.etable_to_json(session.current)
        position = [c["key"] for c in after["columns"]
                    if c["kind"] != "base"].index("Authors->Papers")
        old_cell, new_cell = (
            next(row for row in payload["rows"] if row[0] == author)[2][position]
            for payload in (before, after)
        )
        assert new_cell == [old_cell[0] + 1, *old_cell[1:],
                            paper.node_id, "Freshly Added Paper"]


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
        other = toy_tgdb()
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
