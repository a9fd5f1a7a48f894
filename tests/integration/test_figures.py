"""Integration tests replaying the paper's figures end to end."""

from repro.tgm.conditions import AttributeCompare, AttributeLike
from repro.core.etable import ColumnKind
from repro.core.operators import add, initiate, select, shift
from repro.core.render import render_etable, render_interface
from repro.core.session import EtableSession
from repro.core.transform import execute_pattern
from repro.datasets.toy import FIGURE8_EXPECTED


class TestFigure1:
    """The enriched table of SIGMOD papers with a '%user%' keyword."""

    def test_enriched_table_content(self, academic):
        session = EtableSession(academic.schema, academic.graph)
        session.open("Papers")
        session.filter_by_neighbor(
            "Papers->Paper_Keywords", AttributeLike("keyword", "%user%")
        )
        etable = session.filter_by_neighbor(
            "Papers->Conferences", AttributeCompare("acronym", "=", "SIGMOD")
        )
        assert len(etable) > 0
        # Every row is a SIGMOD paper with a user-related keyword.
        for row in etable.rows:
            keywords = {str(r.label)
                        for r in etable.refs(row, "Papers->Paper_Keywords")}
            assert any("user" in keyword for keyword in keywords)
            conferences = [str(r.label)
                           for r in etable.refs(row, "Papers->Conferences")]
            assert conferences == ["SIGMOD"]

    def test_figure1_columns_present(self, academic):
        session = EtableSession(academic.schema, academic.graph)
        etable = session.open("Papers")
        displays = [c.display for c in etable.visible_columns()]
        # The columns Figure 1 shows: base attrs + the five reference columns.
        for expected in ("id", "title", "year", "page_start", "page_end",
                         "Conferences", "Authors", "Papers (referencing)",
                         "Papers (referenced)", "Paper_Keywords"):
            assert expected in displays

    def test_anchor_paper_renders_like_figure1(self, academic):
        session = EtableSession(academic.schema, academic.graph)
        session.open("Papers")
        etable = session.filter(
            AttributeCompare("title", "=", "Making database systems usable")
        )
        text = render_etable(etable)
        assert "Making datab" in text.replace("\n", " ") or "Making" in text
        assert "H. V. Jag" in text  # truncated author label with count badge

    def test_history_panel_matches_figure1_style(self, academic):
        session = EtableSession(academic.schema, academic.graph)
        session.open("Papers")
        session.filter_by_neighbor(
            "Papers->Paper_Keywords", AttributeLike("keyword", "%user%")
        )
        session.sort("Papers->Papers (referenced)", descending=True)
        lines = session.history_lines()
        assert lines[0] == "1. Open 'Papers' table"
        assert lines[1].startswith("2. Filter 'Papers' table by")
        assert lines[2].startswith("3. Sort table by # of Papers (referenced)")


class TestFigure2:
    """Three routes to explore a paper's authors must agree."""

    def test_three_routes_consistent(self, academic):
        schema, graph = academic.schema, academic.graph
        paper = graph.find_by_label("Papers", "Making database systems usable")
        expected_authors = {
            node.attributes["name"]
            for node in graph.neighbors(paper.node_id, "Papers->Authors")
        }

        # Route (a): click one author name -> single-row table per author.
        session_a = EtableSession(schema, graph)
        session_a.open("Papers")
        row = session_a.current.row_for_node(paper.node_id)
        first_ref = session_a.current.refs(row, "Papers->Authors")[0]
        single = session_a.single(first_ref)
        assert len(single) == 1
        assert single.rows[0].attributes["name"] in expected_authors

        # Route (b): click the author-count badge -> all authors of the paper.
        session_b = EtableSession(schema, graph)
        session_b.open("Papers")
        row = session_b.current.row_for_node(paper.node_id)
        all_authors = session_b.see_all(row, "Papers->Authors")
        names_b = {r.attributes["name"] for r in all_authors.rows}
        assert names_b == expected_authors

        # Route (c): pivot the whole column -> all authors of all papers,
        # which must contain this paper's authors.
        session_c = EtableSession(schema, graph)
        session_c.open("Papers")
        pivoted = session_c.pivot("Papers->Authors")
        names_c = {r.attributes["name"] for r in pivoted.rows}
        assert expected_authors <= names_c


class TestFigure7:
    """Operators P1-P8 and user actions U1-U4 build the same query."""

    def test_operators_equal_actions(self, academic):
        schema, graph = academic.schema, academic.graph

        # Left side of Figure 7: primitive operators.
        pattern = initiate(schema, "Conferences")
        pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))
        pattern = add(pattern, schema, "Conferences->Papers")
        pattern = select(pattern, AttributeCompare("year", ">", 2005))
        pattern = add(pattern, schema, "Papers->Authors")
        pattern = add(pattern, schema, "Authors->Institutions")
        pattern = select(pattern, AttributeLike("country", "%Korea%"))
        pattern = shift(pattern, "Authors")
        by_operators = execute_pattern(pattern, graph)

        # Right side: user-level actions on the interface.
        session = EtableSession(schema, graph)
        session.open("Conferences")                                  # U1
        etable = session.current
        sigmod = etable.find_row_by_attribute("acronym", "SIGMOD")
        session.see_all(sigmod, "Conferences->Papers")               # U2
        session.filter(AttributeCompare("year", ">", 2005))          # U3
        session.pivot("Papers->Authors")                             # U4
        session.pivot("Authors->Institutions")
        session.filter(AttributeLike("country", "%Korea%"))
        by_actions = session.pivot("Authors")

        names_ops = [r.attributes["name"] for r in by_operators.rows]
        names_act = [r.attributes["name"] for r in by_actions.rows]
        assert names_ops == names_act
        assert by_actions.primary_type == "Authors"

    def test_history_records_eight_steps(self, academic):
        session = EtableSession(academic.schema, academic.graph)
        session.open("Conferences")
        sigmod = session.current.find_row_by_attribute("acronym", "SIGMOD")
        session.see_all(sigmod, "Conferences->Papers")
        session.filter(AttributeCompare("year", ">", 2005))
        session.pivot("Papers->Authors")
        assert len(session.history) == 4
        operators = [op for entry in session.history for op in entry.operators]
        assert operators[0] == "Initiate('Conferences')"
        assert any(op.startswith("Select(") for op in operators)
        assert any(op.startswith("Add(") for op in operators)


class TestFigure8:
    """The two-step execution on the toy instances."""

    def test_final_etable(self, toy):
        schema = toy.schema
        pattern = initiate(schema, "Conferences")
        pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))
        pattern = add(pattern, schema, "Conferences->Papers")
        pattern = select(pattern, AttributeCompare("year", ">", 2005))
        pattern = add(pattern, schema, "Papers->Authors")
        pattern = add(pattern, schema, "Authors->Institutions")
        pattern = select(pattern, AttributeLike("country", "%Korea%"))
        pattern = shift(pattern, "Authors")
        etable = execute_pattern(pattern, toy.graph)
        result = {
            row.attributes["name"]: {
                toy.graph.node(node_id).attributes["id"]
                for node_id in row.cells["Papers"]
            }
            for row in etable.rows
        }
        assert result == FIGURE8_EXPECTED

    def test_conference_cell_single_value(self, toy):
        schema = toy.schema
        pattern = initiate(schema, "Conferences")
        pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))
        pattern = add(pattern, schema, "Conferences->Papers")
        pattern = add(pattern, schema, "Papers->Authors")
        pattern = shift(pattern, "Authors")
        etable = execute_pattern(pattern, toy.graph)
        for row in etable.rows:
            labels = [str(ref.label) for ref in etable.refs(row, "Conferences")]
            assert labels == ["SIGMOD"]


class TestFigure9:
    def test_interface_composition(self, academic):
        session = EtableSession(academic.schema, academic.graph)
        session.open("Conferences")
        session.pivot("Conferences->Papers")
        screen = render_interface(session)
        for component in ("ETABLE BUILDER", "ETable: Papers", "SCHEMA VIEW",
                          "HISTORY"):
            assert component in screen
