"""Unit tests for the ETable result object (Section 5.1)."""

import pytest

from repro.errors import InvalidAction
from repro.core.etable import ColumnKind
from repro.core.operators import add, initiate, shift
from repro.core.transform import execute_pattern


@pytest.fixture
def papers_etable(toy):
    return execute_pattern(initiate(toy.schema, "Papers"), toy.graph)


@pytest.fixture
def authors_with_papers(toy):
    pattern = initiate(toy.schema, "Authors")
    pattern = add(pattern, toy.schema, "Authors->Papers")
    pattern = shift(pattern, "Authors")
    return execute_pattern(pattern, toy.graph)


class TestLookup:
    def test_column_by_key(self, papers_etable):
        assert papers_etable.column("title").kind is ColumnKind.BASE

    def test_unknown_column(self, papers_etable):
        with pytest.raises(InvalidAction):
            papers_etable.column("nope")

    def test_column_by_display(self, papers_etable):
        spec = papers_etable.column_by_display("Conferences")
        assert spec.kind is ColumnKind.NEIGHBOR

    def test_column_by_display_prefers_participating(self, authors_with_papers):
        # Participating 'Papers' column and the hidden neighbor column both
        # render as 'Papers'; the participating one wins.
        spec = authors_with_papers.column_by_display("Papers")
        assert spec.kind is ColumnKind.PARTICIPATING

    def test_column_by_display_unknown(self, papers_etable):
        with pytest.raises(InvalidAction):
            papers_etable.column_by_display("Nope")

    def test_row_bounds(self, papers_etable):
        with pytest.raises(InvalidAction):
            papers_etable.row(999)

    def test_row_for_node(self, papers_etable, toy):
        paper = toy.graph.find_by_label("Papers", "Query steering for data exploration")
        row = papers_etable.row_for_node(paper.node_id)
        assert row.attributes["id"] == 1

    def test_row_for_missing_node(self, papers_etable):
        with pytest.raises(InvalidAction):
            papers_etable.row_for_node(10**9)

    def test_find_row_by_attribute(self, papers_etable):
        row = papers_etable.find_row_by_attribute("year", 2003)
        assert row.attributes["id"] == 3
        with pytest.raises(InvalidAction):
            papers_etable.find_row_by_attribute("year", 1900)

    def test_find_row_by_attribute_sees_in_place_mutation(self, papers_etable):
        """The lazy attribute index must not hide rows whose attributes were
        mutated after it was built (rows are public mutable dicts)."""
        original = papers_etable.find_row_by_attribute("year", 2003)
        original.attributes["year"] = 1234  # mutate after the index exists
        found = papers_etable.find_row_by_attribute("year", 1234)
        assert found is original
        with pytest.raises(InvalidAction):
            papers_etable.find_row_by_attribute("year", 2003)


class TestPresentation:
    def test_sort_by_base_attribute(self, papers_etable):
        papers_etable.sort("year")
        years = [row.attributes["year"] for row in papers_etable.rows]
        assert years == sorted(years)

    def test_sort_by_ref_count_desc(self, papers_etable):
        papers_etable.sort("Papers->Authors", descending=True)
        counts = [row.ref_count("Papers->Authors") for row in papers_etable.rows]
        assert counts == sorted(counts, reverse=True)

    def test_sort_nulls_last_ascending(self, toy):
        etable = execute_pattern(initiate(toy.schema, "Papers"), toy.graph)
        etable.sort("year")
        assert etable.rows[-1].attributes["year"] is not None  # toy has no nulls

    def test_sort_mixed_types_total_order(self, papers_etable):
        """A base column mixing ints, strings, and NULLs must not raise.

        Regression test: ``_sort_key`` used to emit ``(0, value)`` for
        numbers but ``(0, str(value))`` for strings, so Python compared an
        int against a str and raised ``TypeError``.
        """
        values = [2003, "draft", None, 1999, "camera-ready", 2010]
        for row, value in zip(papers_etable.rows, values):
            row.attributes["year"] = value
        papers_etable.sort("year")
        sorted_years = [row.attributes["year"] for row in papers_etable.rows]
        numbers = [v for v in sorted_years if isinstance(v, (int, float))]
        strings = [v for v in sorted_years if isinstance(v, str)]
        assert numbers == sorted(numbers)
        assert strings == sorted(strings)
        # Numbers come first, then strings, then NULLs.
        kinds = [
            0 if isinstance(v, (int, float)) else (2 if v is None else 1)
            for v in sorted_years
        ]
        assert kinds == sorted(kinds)

    def test_find_row_by_attribute_after_sort_respects_new_order(
        self, papers_etable
    ):
        """The attribute index maps to the *first* row in display order and
        must be rebuilt after sorting."""
        for index, row in enumerate(papers_etable.rows):
            row.attributes["parity"] = index % 2
        first = papers_etable.find_row_by_attribute("parity", 0)
        assert first is papers_etable.rows[0]
        papers_etable.sort("year", descending=True)
        refetched = papers_etable.find_row_by_attribute("parity", 0)
        expected = next(
            row for row in papers_etable.rows if row.attributes["parity"] == 0
        )
        assert refetched is expected

    def test_hide_show(self, papers_etable):
        papers_etable.hide_column("year")
        assert "year" not in [c.key for c in papers_etable.visible_columns()]
        papers_etable.show_column("year")
        assert "year" in [c.key for c in papers_etable.visible_columns()]

    def test_hide_unknown_column(self, papers_etable):
        with pytest.raises(InvalidAction):
            papers_etable.hide_column("nope")

    def test_len(self, papers_etable):
        assert len(papers_etable) == 7


class TestExport:
    def test_to_dicts_labels(self, authors_with_papers):
        rows = authors_with_papers.to_dicts()
        bob = next(r for r in rows if r["name"] == "Bob")
        assert set(bob["Papers"]) >= {
            "Query steering for data exploration",
        }

    def test_to_dicts_node_ids(self, authors_with_papers, toy):
        rows = authors_with_papers.to_dicts(labels=False)
        bob = next(r for r in rows if r["name"] == "Bob")
        assert all(isinstance(v, int) for v in bob["Papers"])

    def test_entity_ref_str(self, authors_with_papers):
        row = authors_with_papers.find_row_by_attribute("name", "Bob")
        ref = authors_with_papers.refs(row, "Papers")[0]
        assert str(ref) == str(ref.label)
