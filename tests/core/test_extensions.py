"""Unit tests for the Section 9 future-work extensions:
set operations, intermediate-result caching, and column ranking."""

import pytest

from repro.errors import InvalidOperator
from repro.tgm.conditions import AttributeCompare
from repro.core.cache import CachingExecutor, pattern_cache_key
from repro.core.column_ranking import score_columns, select_columns
from repro.core.etable import ColumnKind
from repro.core.operators import add, initiate, select, shift
from repro.core.set_ops import (
    etable_difference,
    etable_intersection,
    etable_union,
)
from repro.core.transform import execute_pattern


def papers_before(toy, year):
    pattern = initiate(toy.schema, "Papers")
    pattern = select(pattern, AttributeCompare("year", "<", year))
    return execute_pattern(pattern, toy.graph)


def papers_after(toy, year):
    pattern = initiate(toy.schema, "Papers")
    pattern = select(pattern, AttributeCompare("year", ">=", year))
    return execute_pattern(pattern, toy.graph)


class TestSetOperations:
    def test_union_covers_everything(self, toy):
        union = etable_union(papers_before(toy, 2010), papers_after(toy, 2010))
        assert len(union) == 7
        ids = [row.node_id for row in union.rows]
        assert len(set(ids)) == len(ids)

    def test_union_overlap_not_duplicated(self, toy):
        left = papers_before(toy, 2012)   # years < 2012
        right = papers_after(toy, 2006)   # years >= 2006
        union = etable_union(left, right)
        assert len(union) == 7

    def test_union_right_only_rows_keep_neighbor_cells(self, toy):
        left = papers_before(toy, 2005)
        right = papers_after(toy, 2013)
        union = etable_union(left, right)
        newest = union.find_row_by_attribute("year", 2014)
        assert newest.ref_count("Papers->Authors") > 0

    def test_intersection(self, toy):
        left = papers_after(toy, 2006)
        right = papers_before(toy, 2012)
        intersection = etable_intersection(left, right)
        years = {row.attributes["year"] for row in intersection.rows}
        assert years == {2006, 2009, 2011}

    def test_difference(self, toy):
        everything = papers_after(toy, 0)
        recent = papers_after(toy, 2010)
        difference = etable_difference(everything, recent)
        years = {row.attributes["year"] for row in difference.rows}
        assert years == {2003, 2006, 2009}

    def test_intersection_preserves_left_cells(self, toy):
        schema = toy.schema
        pattern = initiate(schema, "Papers")
        pattern = add(pattern, schema, "Papers->Authors")
        pattern = shift(pattern, "Papers")
        with_authors = execute_pattern(pattern, toy.graph)
        recent = papers_after(toy, 2006)
        intersection = etable_intersection(with_authors, recent)
        assert intersection.participating_columns()
        for row in intersection.rows:
            assert row.ref_count("Authors") > 0

    def test_type_mismatch_rejected(self, toy):
        papers = papers_after(toy, 0)
        authors = execute_pattern(initiate(toy.schema, "Authors"), toy.graph)
        with pytest.raises(InvalidOperator):
            etable_union(papers, authors)

    def test_set_ops_do_not_mutate_inputs(self, toy):
        left = papers_before(toy, 2010)
        right = papers_after(toy, 2010)
        before = [row.node_id for row in left.rows]
        etable_union(left, right)
        etable_intersection(left, right)
        etable_difference(left, right)
        assert [row.node_id for row in left.rows] == before

    def test_union_rederives_left_exclusive_participating_cells(self, toy):
        """Right-only rows get left-pattern cells re-derived, not left empty.

        Left: papers before 2010 joined to their authors (participating
        column "Authors"). Right: plain papers >= 2010 (no such column).
        Every post-2010 paper has authors, so the re-derived cells must be
        non-empty and match a direct execution of the left pattern.
        """
        schema = toy.schema
        pattern = initiate(schema, "Papers")
        pattern = add(pattern, schema, "Papers->Authors")
        pattern = shift(pattern, "Papers")
        pattern = select(pattern, AttributeCompare("year", "<", 2010))
        left = execute_pattern(pattern, toy.graph)
        right = papers_after(toy, 2010)

        union = etable_union(left, right)
        full = execute_pattern(
            shift(add(initiate(schema, "Papers"), schema, "Papers->Authors"),
                  "Papers"),
            toy.graph,
        )
        right_only_ids = {row.node_id for row in right.rows} - {
            row.node_id for row in left.rows
        }
        assert right_only_ids
        for node_id in right_only_ids:
            transplanted = union.row_for_node(node_id)
            expected = full.row_for_node(node_id)
            assert set(transplanted.cells["Authors"]) == \
                set(expected.cells["Authors"])
            assert transplanted.cells["Authors"]

    def test_union_right_only_nonmatching_rows_get_empty_cells(self, toy):
        """A transplanted row that does not match the left pattern (here:
        no Korean co-author) re-derives to an empty participating cell."""
        from repro.tgm.conditions import AttributeLike

        schema = toy.schema
        pattern = initiate(schema, "Papers")
        pattern = add(pattern, schema, "Papers->Authors")
        pattern = add(pattern, schema, "Authors->Institutions")
        pattern = select(pattern, AttributeLike("country", "%Korea%"))
        pattern = shift(pattern, "Papers")
        pattern = select(pattern, AttributeCompare("year", "<", 2010))
        left = execute_pattern(pattern, toy.graph)
        right = papers_after(toy, 0)  # every paper

        union = etable_union(left, right)
        # Paper 11 has only Ada (US institution): no Korean co-author.
        non_matching = union.find_row_by_attribute("year", 2013)
        assert non_matching.cells["Authors"] == ()
        # Paper 8 (2014, Bob & Mark at Korean institutions) matches.
        matching = union.find_row_by_attribute("year", 2014)
        assert matching.cells["Authors"]


class TestCachingExecutor:
    def test_hit_on_repeat(self, toy):
        executor = CachingExecutor(toy.graph)
        pattern = initiate(toy.schema, "Papers")
        executor.execute(pattern)
        executor.execute(pattern)
        assert executor.stats.hits == 1
        assert executor.stats.misses == 1

    def test_cached_result_identical(self, toy):
        executor = CachingExecutor(toy.graph)
        pattern = initiate(toy.schema, "Papers")
        pattern = select(pattern, AttributeCompare("year", ">", 2005))
        first = executor.execute(pattern)
        second = executor.execute(pattern)
        assert [r.node_id for r in first.rows] == [r.node_id for r in second.rows]

    def test_key_normalizes_node_order(self, toy):
        schema = toy.schema
        a = initiate(schema, "Conferences")
        a = add(a, schema, "Conferences->Papers")
        assert pattern_cache_key(a) == pattern_cache_key(a.with_primary("Papers").with_primary(a.primary_key))

    def test_different_conditions_different_keys(self, toy):
        base = initiate(toy.schema, "Papers")
        filtered = select(base, AttributeCompare("year", ">", 2005))
        assert pattern_cache_key(base) != pattern_cache_key(filtered)

    def test_shift_changes_key(self, toy):
        schema = toy.schema
        pattern = initiate(schema, "Conferences")
        pattern = add(pattern, schema, "Conferences->Papers")
        shifted = shift(pattern, "Conferences")
        assert pattern_cache_key(pattern) != pattern_cache_key(shifted)

    def test_eviction_bounds_memory(self, toy):
        executor = CachingExecutor(toy.graph, max_entries=2)
        for year in (2001, 2002, 2003, 2004):
            pattern = select(
                initiate(toy.schema, "Papers"),
                AttributeCompare("year", ">", year),
            )
            executor.execute(pattern)
        assert len(executor._store) == 2

    def test_lru_eviction_order(self, toy):
        """A re-hit entry survives eviction; the least recently used goes."""
        def paper_pattern(year):
            return select(
                initiate(toy.schema, "Papers"),
                AttributeCompare("year", ">", year),
            )

        executor = CachingExecutor(toy.graph, max_entries=2)
        executor.execute(paper_pattern(2001))  # miss: {2001}
        executor.execute(paper_pattern(2002))  # miss: {2001, 2002}
        executor.execute(paper_pattern(2001))  # hit refreshes 2001
        executor.execute(paper_pattern(2003))  # evicts 2002, not 2001
        assert pattern_cache_key(paper_pattern(2001)) in executor._store
        assert pattern_cache_key(paper_pattern(2002)) not in executor._store
        executor.execute(paper_pattern(2001))  # still cached
        assert executor.stats.hits == 2

    def test_hit_rate(self, toy):
        executor = CachingExecutor(toy.graph)
        pattern = initiate(toy.schema, "Papers")
        executor.execute(pattern)
        executor.execute(pattern)
        executor.execute(pattern)
        assert executor.stats.hit_rate == pytest.approx(2 / 3)


class TestColumnRanking:
    def test_scores_cover_all_columns(self, academic):
        etable = execute_pattern(
            initiate(academic.schema, "Papers"), academic.graph, row_limit=100
        )
        ranking = score_columns(etable)
        assert len(ranking) == len(etable.columns)
        assert all(item.score >= 0 for item in ranking)

    def test_label_column_ranks_high(self, academic):
        etable = execute_pattern(
            initiate(academic.schema, "Papers"), academic.graph, row_limit=100
        )
        ranking = score_columns(etable)
        top_keys = [item.column.key for item in ranking[:4]]
        assert "title" in top_keys

    def test_select_columns_hides_rest(self, academic):
        etable = execute_pattern(
            initiate(academic.schema, "Papers"), academic.graph, row_limit=100
        )
        select_columns(etable, keep=5)
        assert len(etable.visible_columns()) <= 5 + len(
            etable.participating_columns()
        )

    def test_participating_columns_never_hidden(self, academic):
        schema = academic.schema
        pattern = initiate(schema, "Papers")
        pattern = add(pattern, schema, "Papers->Authors")
        pattern = shift(pattern, "Papers")
        etable = execute_pattern(pattern, academic.graph, row_limit=50)
        select_columns(etable, keep=1)
        visible = {column.key for column in etable.visible_columns()}
        assert "Authors" in visible

    def test_empty_table_scores_gracefully(self, academic):
        pattern = select(
            initiate(academic.schema, "Papers"),
            AttributeCompare("year", ">", 3000),
        )
        etable = execute_pattern(pattern, academic.graph)
        ranking = score_columns(etable)
        assert ranking  # no crash, all kind-prior scores

    def test_explanations_render(self, academic):
        etable = execute_pattern(
            initiate(academic.schema, "Papers"), academic.graph, row_limit=50
        )
        for item in score_columns(etable)[:3]:
            text = item.explain()
            assert "score=" in text and item.column.display in text
