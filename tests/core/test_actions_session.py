"""Unit tests for user-level actions and the interactive session (Sec 6.1)."""

import pytest

from repro.errors import InvalidAction
from repro.tgm.conditions import AttributeCompare, AttributeLike
from repro.core.cache import CachingExecutor
from repro.core.session import EtableSession


@pytest.fixture
def session(toy):
    return EtableSession(toy.schema, toy.graph)


class TestOpenFilter:
    def test_open_lists_all(self, session):
        etable = session.open("Papers")
        assert len(etable) == 7
        assert session.history_lines()[0] == "1. Open 'Papers' table"

    def test_default_table_list_excludes_value_types(self, session):
        assert session.default_table_list() == [
            "Conferences", "Institutions", "Authors", "Papers"
        ]

    def test_filter(self, session):
        session.open("Papers")
        etable = session.filter(AttributeCompare("year", ">", 2005))
        assert len(etable) == 6
        assert "Filter 'Papers' table by (year > 2005)" in session.history_lines()[1]

    def test_filter_convenience_helpers(self, session):
        session.open("Institutions")
        etable = session.filter_like("country", "%Korea%")
        assert len(etable) == 2
        session.open("Papers")
        etable = session.filter_attribute("year", "=", 2003)
        assert len(etable) == 1

    def test_filters_accumulate(self, session):
        session.open("Papers")
        session.filter(AttributeCompare("year", ">", 2005))
        etable = session.filter(AttributeCompare("year", "<", 2013))
        assert all(2005 < r.attributes["year"] < 2013 for r in etable.rows)

    def test_filter_without_open_rejected(self, session):
        with pytest.raises(InvalidAction):
            session.filter(AttributeCompare("year", ">", 2005))

    def test_filter_by_neighbor_keeps_primary(self, session):
        session.open("Papers")
        etable = session.filter_by_neighbor(
            "Papers->Authors", AttributeCompare("name", "=", "Bob")
        )
        assert etable.primary_type == "Papers"
        assert {r.attributes["id"] for r in etable.rows} == {1, 4, 5, 8}
        # No participating column was added: the pattern is still one node.
        assert len(etable.pattern.nodes) == 1

    def test_filter_by_neighbor_needs_neighbor_column(self, session):
        session.open("Papers")
        with pytest.raises(InvalidAction):
            session.filter_by_neighbor(
                "title", AttributeCompare("name", "=", "Bob")
            )


class TestPivot:
    def test_pivot_neighbor_adds(self, session):
        session.open("Conferences")
        session.filter(AttributeCompare("acronym", "=", "SIGMOD"))
        etable = session.pivot("Conferences->Papers")
        assert etable.primary_type == "Papers"
        assert len(etable) == 5

    def test_pivot_participating_shifts(self, session):
        session.open("Conferences")
        session.pivot("Conferences->Papers")
        etable = session.pivot("Conferences")  # participating column
        assert etable.primary_type == "Conferences"
        # Conferences without papers would drop; both toy conferences have
        # papers, so 2 rows.
        assert len(etable) == 2

    def test_pivot_by_display_name(self, session):
        session.open("Conferences")
        etable = session.pivot("Papers")  # display name of the edge column
        assert etable.primary_type == "Papers"

    def test_pivot_base_column_rejected(self, session):
        session.open("Papers")
        with pytest.raises(InvalidAction):
            session.pivot("title")


class TestSingleSeeAll:
    def test_single_creates_one_row_table(self, session, toy):
        session.open("Papers")
        paper = toy.graph.find_by_label("Papers", "Enriched tables for entity browsing")
        etable = session.single(paper)
        assert len(etable) == 1
        assert etable.rows[0].attributes["id"] == 4

    def test_single_from_entity_ref(self, session):
        etable = session.open("Papers")
        ref = etable.rows[0].refs("Papers->Authors")[0]
        result = session.single(ref)
        assert result.primary_type == "Authors"
        assert len(result) == 1

    def test_see_all_neighbor(self, session):
        session.open("Conferences")
        etable = session.current
        sigmod = etable.find_row_by_attribute("acronym", "SIGMOD")
        result = session.see_all(sigmod, "Conferences->Papers")
        assert result.primary_type == "Papers"
        assert len(result) == 5  # all SIGMOD papers

    def test_see_all_participating(self, session):
        session.open("Conferences")
        session.pivot("Conferences->Papers")
        etable = session.current
        row = etable.find_row_by_attribute("id", 4)
        result = session.see_all(row, "Conferences")
        assert result.primary_type == "Conferences"
        assert len(result) == 1

    def test_see_all_by_row_index(self, session):
        session.open("Conferences")
        result = session.see_all(0, "Conferences->Papers")
        assert result.primary_type == "Papers"

    def test_see_all_base_column_rejected(self, session):
        session.open("Papers")
        with pytest.raises(InvalidAction):
            session.see_all(0, "title")


class TestPresentationActions:
    def test_sort_logged_and_applied(self, session):
        session.open("Papers")
        etable = session.sort("year", descending=True)
        assert etable.rows[0].attributes["year"] == 2014
        assert "Sort table by year (desc)" in session.history_lines()[-1]

    def test_sort_ref_count_history_mentions_count(self, session):
        session.open("Papers")
        session.sort("Papers->Authors", descending=True)
        assert "# of" in session.history_lines()[-1]

    def test_sort_persists_across_filter(self, session):
        session.open("Papers")
        session.sort("year", descending=True)
        etable = session.filter(AttributeCompare("year", ">", 2005))
        years = [r.attributes["year"] for r in etable.rows]
        assert years == sorted(years, reverse=True)

    def test_hide_column_logged(self, session):
        session.open("Papers")
        session.hide_column("page_start")
        assert "Hide column" in session.history_lines()[-1]
        session.show_column("page_start")
        assert "Show column" in session.history_lines()[-1]


class TestHistory:
    def test_revert_restores_pattern(self, session):
        session.open("Papers")
        session.filter(AttributeCompare("year", ">", 2005))
        session.pivot("Papers->Authors")
        etable = session.revert(1)  # back to the filtered Papers table
        assert etable.primary_type == "Papers"
        assert len(etable) == 6
        assert "Revert to step 2" in session.history_lines()[-1]

    def test_revert_restores_sort(self, session):
        session.open("Papers")
        session.sort("year", descending=True)
        session.filter(AttributeCompare("year", ">", 2005))
        session.revert(1)
        years = [r.attributes["year"] for r in session.current.rows]
        assert years == sorted(years, reverse=True)

    def test_revert_out_of_range(self, session):
        session.open("Papers")
        with pytest.raises(InvalidAction):
            session.revert(5)

    def test_history_numbering(self, session):
        session.open("Papers")
        session.sort("year")
        lines = session.history_lines()
        assert lines[0].startswith("1.") and lines[1].startswith("2.")

    def test_operator_trace_recorded(self, session):
        session.open("Conferences")
        session.pivot("Conferences->Papers")
        assert session.history[0].operators == ("Initiate('Conferences')",)
        assert session.history[1].operators == ("Add('Conferences->Papers')",)

    def test_figure1_like_history(self, session):
        """The history panel narrative of Figure 1."""
        session.open("Papers")
        session.filter_by_neighbor(
            "Papers->Paper_Keywords", AttributeLike("keyword", "%user%")
        )
        session.sort("Papers->Papers (referenced)", descending=True)
        lines = session.history_lines()
        assert lines[0] == "1. Open 'Papers' table"
        assert "keyword like '%user%'" in lines[1]
        assert "# of Papers (referenced)" in lines[2]


class TestEngineSelection:
    def test_naive_engine_session_matches_planned(self, toy):
        planned = EtableSession(toy.schema, toy.graph, engine="planned")
        naive = EtableSession(toy.schema, toy.graph, engine="naive")
        planned.open("Papers")
        naive.open("Papers")
        assert (
            [r.node_id for r in planned.current.rows]
            == [r.node_id for r in naive.current.rows]
        )

    def test_unknown_engine_rejected(self, toy):
        # Rejected at construction (fail fast), not at the first action;
        # the deleted engines are unknown names like any other.
        for engine in ("wat", "parallel", "pushdown"):
            with pytest.raises(InvalidAction):
                EtableSession(toy.schema, toy.graph, engine=engine)
            with pytest.raises(InvalidAction):
                EtableSession(toy.schema, toy.graph, engine=engine,
                              executor=CachingExecutor(toy.graph))

    def test_cache_with_naive_engine_rejected(self, toy):
        """The caching executor always plans; asking for the naive oracle
        over a shared executor must fail loudly, not silently run the
        planner."""
        with pytest.raises(InvalidAction):
            EtableSession(toy.schema, toy.graph, engine="naive",
                          executor=CachingExecutor(toy.graph))

    def test_negative_row_limit_rejected(self, toy):
        # Slicing by -2 would keep 5 of the 7 papers: rejected at
        # construction instead, for every engine.
        for engine in ("naive", "planned", "incremental"):
            with pytest.raises(InvalidAction):
                EtableSession(toy.schema, toy.graph, row_limit=-2,
                              engine=engine)
        assert len(EtableSession(toy.schema, toy.graph,
                                 row_limit=0).open("Papers")) == 0

    def test_explain_plan_matches_execution_mode(self, toy):
        planned = EtableSession(toy.schema, toy.graph)
        planned.open("Conferences")
        # A one-node table comes from a cached scan: no delta joins ran.
        assert planned.explain_plan() == (
            "Execution plan (selectivity-ordered):\n"
            "  1. scan Conferences: full Conferences scan (est 2.0 rows)\n"
            "cache: 0 hits / 1 misses (0%), 0 prefix hits reusing 0 "
            "joined nodes, 0 delta joins"
        )
        # A multi-node table is walked from its semi-join reduction, not
        # from joined prefixes: every toy conference and paper survives.
        planned.pivot("Conferences->Papers")
        text = planned.explain_plan()
        assert "reuse:" not in text
        assert "reduction: semi-joins along the plan keep Conferences 2, " \
            "Papers 7 ids; 7 rows survive" in text
        assert "cache:" in text

        # Only the incremental engine joins prefixes and deltas.
        incremental = EtableSession(toy.schema, toy.graph,
                                    engine="incremental")
        incremental.open("Conferences")
        incremental.pivot("Conferences->Papers")
        text = incremental.explain_plan()
        assert "reuse: intermediates cached per subpattern; extensions " \
            "re-execute only their delta joins" in text
        assert "reduction:" not in text

        naive = EtableSession(toy.schema, toy.graph, engine="naive")
        naive.open("Conferences")
        text = naive.explain_plan()
        assert "naive reference matcher" in text
        assert "cache:" not in text
