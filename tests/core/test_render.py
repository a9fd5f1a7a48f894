"""Unit tests for the ASCII renderers (Figures 1 and 9)."""

from repro.tgm.conditions import AttributeCompare
from repro.core.render import (
    render_cell,
    render_default_table_list,
    render_etable,
    render_history,
    render_interface,
)
from repro.core.session import EtableSession


def open_papers(toy) -> EtableSession:
    session = EtableSession(toy.schema, toy.graph)
    session.open("Papers")
    return session


class TestRenderCell:
    def test_base_cell(self, toy):
        session = open_papers(toy)
        row = session.current.rows[0]
        assert render_cell(session.current, row, session.current.column("year")) == "2006"

    def test_null_base_cell_empty(self, toy):
        session = EtableSession(toy.schema, toy.graph)
        session.open("Authors")
        row = session.current.rows[0]
        # Authors have no null columns in toy data; simulate by reading a
        # column through a dict copy instead.
        row.attributes["name"] = None
        assert render_cell(session.current, row, session.current.column("name")) == ""

    def test_ref_cell_has_count_and_labels(self, toy):
        session = open_papers(toy)
        row = session.current.find_row_by_attribute("id", 4)
        text = render_cell(session.current, row, session.current.column("Papers->Authors"))
        assert text.startswith("3│")
        assert "Bob" in text

    def test_ref_cell_truncates(self, toy):
        session = open_papers(toy)
        row = session.current.find_row_by_attribute("id", 4)
        text = render_cell(
            session.current, row, session.current.column("Papers->Authors"), max_refs=1
        )
        assert text.startswith("3│") and text.endswith(", …")

    def test_empty_ref_cell(self, toy):
        session = open_papers(toy)
        row = session.current.find_row_by_attribute("id", 1)
        text = render_cell(
            session.current, row, session.current.column("Papers->Papers (referenced)")
        )
        assert text == "0│"

    def test_long_labels_shortened(self, toy):
        session = open_papers(toy)
        row = session.current.find_row_by_attribute("id", 4)
        text = render_cell(
            session.current, row, session.current.column("Papers->Paper_Keywords"),
            label_width=4,
        )
        assert "…" in text


class TestRenderEtable:
    def test_header_and_rows(self, toy):
        session = open_papers(toy)
        text = render_etable(session.current)
        assert "ETable: Papers" in text
        assert "title" in text and "year" in text

    def test_row_cap(self, toy):
        session = open_papers(toy)
        text = render_etable(session.current, max_rows=2)
        assert "… 5 more rows" in text

    def test_hidden_columns_not_rendered(self, toy):
        session = open_papers(toy)
        session.hide_column("page_start")
        text = render_etable(session.current)
        assert "page_start" not in text


class TestInterface:
    def test_default_table_list(self):
        text = render_default_table_list(["Papers", "Authors"])
        assert "▸ Papers" in text and "▸ Authors" in text

    def test_history_rendering(self):
        text = render_history(["1. Open 'Papers' table"])
        assert "HISTORY" in text and "Open" in text
        assert "(empty)" in render_history([])

    def test_full_interface_has_four_components(self, toy):
        session = open_papers(toy)
        session.filter(AttributeCompare("year", ">", 2005))
        text = render_interface(session)
        assert "ETABLE BUILDER" in text          # 1: default table list
        assert "ETable: Papers" in text           # 2: main view
        assert "SCHEMA VIEW" in text              # 3: schema view
        assert "HISTORY" in text                  # 4: history view

    def test_interface_without_table(self, toy):
        session = EtableSession(toy.schema, toy.graph)
        assert "(no table open)" in render_interface(session)
