"""Unit tests for format transformation (Section 5.4.2)."""

from repro.tgm.conditions import AttributeCompare, AttributeLike
from repro.core.etable import ColumnKind
from repro.core.operators import add, initiate, select, shift
from repro.core.transform import duplication_factor, execute_pattern


def korea_authors_etable(toy):
    schema = toy.schema
    pattern = initiate(schema, "Conferences")
    pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))
    pattern = add(pattern, schema, "Conferences->Papers")
    pattern = select(pattern, AttributeCompare("year", ">", 2005))
    pattern = add(pattern, schema, "Papers->Authors")
    pattern = add(pattern, schema, "Authors->Institutions")
    pattern = select(pattern, AttributeLike("country", "%Korea%"))
    pattern = shift(pattern, "Authors")
    return execute_pattern(pattern, toy.graph)


class TestRows:
    def test_rows_are_distinct_primaries(self, toy):
        etable = korea_authors_etable(toy)
        names = [row.attributes["name"] for row in etable.rows]
        assert names == ["Bob", "Mark", "Chad"]

    def test_figure8_final_cells(self, toy):
        from repro.datasets.toy import FIGURE8_EXPECTED

        etable = korea_authors_etable(toy)
        for row in etable.rows:
            papers = {
                toy.graph.node(node_id).attributes["id"]
                for node_id in row.cells["Papers"]
            }
            assert papers == FIGURE8_EXPECTED[row.attributes["name"]]

    def test_row_limit_truncates_presentation_only(self, toy):
        pattern = initiate(toy.schema, "Papers")
        etable = execute_pattern(pattern, toy.graph, row_limit=3)
        assert len(etable.rows) == 3

    def test_empty_result(self, toy):
        pattern = initiate(toy.schema, "Papers")
        pattern = select(pattern, AttributeCompare("year", ">", 2050))
        etable = execute_pattern(pattern, toy.graph)
        assert etable.rows == []


class TestColumns:
    def test_base_columns_are_primary_attributes(self, toy):
        etable = korea_authors_etable(toy)
        base = [c.key for c in etable.base_columns()]
        assert base == ["id", "name", "institution_id"]

    def test_participating_columns(self, toy):
        etable = korea_authors_etable(toy)
        keys = [c.key for c in etable.participating_columns()]
        assert keys == ["Conferences", "Papers", "Institutions"]

    def test_neighbor_columns_follow_schema(self, toy):
        etable = korea_authors_etable(toy)
        neighbor_keys = {c.key for c in etable.neighbor_columns()}
        expected = {e.name for e in toy.schema.edges_from("Authors")}
        assert neighbor_keys == expected

    def test_duplicated_neighbors_auto_hidden(self, toy):
        etable = korea_authors_etable(toy)
        # The pattern joins Authors->Institutions and Papers->Authors from
        # the primary, so those neighbor columns duplicate participating ones.
        assert "Authors->Institutions" in etable.hidden_columns
        assert "Authors->Papers" in etable.hidden_columns

    def test_participating_cell_respects_whole_pattern(self, toy):
        # Mark's Institutions cell must contain only Korean institutions.
        etable = korea_authors_etable(toy)
        mark = etable.find_row_by_attribute("name", "Mark")
        labels = [ref.label for ref in etable.refs(mark, "Institutions")]
        assert labels == ["KAIST"]

    def test_neighbor_cell_ignores_pattern(self, toy):
        # Neighbor column for papers shows ALL of Bob's papers (conference
        # and year unfiltered), unlike the participating Papers column.
        etable = korea_authors_etable(toy)
        bob = etable.find_row_by_attribute("name", "Bob")
        neighbor = {
            toy.graph.node(node_id).attributes["id"]
            for node_id in bob.cells["Authors->Papers"]
        }
        assert neighbor == {1, 4, 5, 8}  # equals here; filters hit others

    def test_neighbor_preview_counts(self, toy):
        pattern = initiate(toy.schema, "Conferences")
        etable = execute_pattern(pattern, toy.graph)
        sigmod = etable.find_row_by_attribute("acronym", "SIGMOD")
        assert sigmod.ref_count("Conferences->Papers") == 5


class TestDuplicationFactor:
    def test_single_table_factor_is_one(self, toy):
        pattern = initiate(toy.schema, "Papers")
        assert duplication_factor(pattern, toy.graph) == 1.0

    def test_join_inflates_flat_result(self, toy):
        pattern = initiate(toy.schema, "Papers")
        pattern = add(pattern, toy.schema, "Papers->Authors")
        pattern = shift(pattern, "Papers")
        factor = duplication_factor(pattern, toy.graph)
        assert factor == 12 / 7  # 12 authorships over 7 papers

    def test_empty_pattern_factor_zero(self, toy):
        pattern = initiate(toy.schema, "Papers")
        pattern = select(pattern, AttributeCompare("year", ">", 2050))
        assert duplication_factor(pattern, toy.graph) == 0.0
