"""Unit tests for the command-driven front end."""

import pytest

from repro.errors import InvalidAction
from repro.core.repl import Repl, build_condition, parse_command, parse_value
from repro.tgm.conditions import AttributeCompare, AttributeLike


@pytest.fixture
def repl(toy):
    return Repl(toy.schema, toy.graph, mapping=toy.mapping, max_rows=12)


class TestParsing:
    def test_blank_and_comment_lines(self):
        assert parse_command("") is None
        assert parse_command("   ") is None
        assert parse_command("# a comment") is None

    def test_tokenization_with_quotes(self):
        command = parse_command('filter title = "Making database systems usable"')
        assert command.name == "filter"
        assert command.args == ("title", "=", "Making database systems usable")

    def test_name_lowercased(self):
        assert parse_command("OPEN Papers").name == "open"

    def test_unbalanced_quote_rejected(self):
        with pytest.raises(InvalidAction):
            parse_command('open "Papers')

    def test_parse_value(self):
        assert parse_value("42") == 42
        assert parse_value("2.5") == 2.5
        assert parse_value("true") is True
        assert parse_value("SIGMOD") == "SIGMOD"

    def test_build_condition_compare(self):
        condition = build_condition("year", ">", "2005")
        assert condition == AttributeCompare("year", ">", 2005)

    def test_build_condition_like(self):
        condition = build_condition("country", "like", "%Korea%")
        assert condition == AttributeLike("country", "%Korea%")

    def test_build_condition_bad_op(self):
        with pytest.raises(InvalidAction):
            build_condition("year", "~~", "2005")


class TestCommands:
    def test_tables(self, repl):
        out = repl.execute_line("tables")
        assert "Papers" in out and "Conferences" in out

    def test_open_renders_table(self, repl):
        out = repl.execute_line("open Papers")
        assert "ETable: Papers" in out and "(7 rows" in out

    def test_filter(self, repl):
        repl.execute_line("open Papers")
        out = repl.execute_line("filter year > 2005")
        assert "(6 rows" in out

    def test_nfilter(self, repl):
        repl.execute_line("open Papers")
        out = repl.execute_line('nfilter Papers->Authors name = Bob')
        assert "(4 rows" in out

    def test_pivot_and_history(self, repl):
        repl.execute_line("open Conferences")
        out = repl.execute_line("pivot Papers")
        assert "ETable: Papers" in out
        history = repl.execute_line("history")
        assert "1. Open 'Conferences' table" in history
        assert "2. Pivot to 'Papers'" in history

    def test_seeall(self, repl):
        repl.execute_line("open Conferences")
        out = repl.execute_line("seeall 0 Papers")
        assert "ETable: Papers" in out and "(5 rows" in out

    def test_single(self, repl):
        repl.execute_line("open Papers")
        out = repl.execute_line("single 2 Authors 0")
        assert "ETable: Authors" in out and "(1 rows" in out

    def test_sort_desc(self, repl):
        repl.execute_line("open Papers")
        out = repl.execute_line("sort year desc")
        lines = [line for line in out.splitlines() if "│ 2014 │" in line]
        assert lines  # the 2014 paper surfaces on top rows

    def test_hide_show_columns(self, repl):
        repl.execute_line("open Papers")
        hidden = repl.execute_line("hide page_start")
        assert "page_start" not in hidden
        shown = repl.execute_line("show page_start")
        assert "page_start" in shown

    def test_rank(self, repl):
        repl.execute_line("open Papers")
        out = repl.execute_line("rank 4")
        assert "score=" in out

    def test_revert_one_based(self, repl):
        repl.execute_line("open Papers")
        repl.execute_line("filter year > 2005")
        out = repl.execute_line("revert 1")
        assert "(7 rows" in out

    def test_schema_and_columns(self, repl):
        repl.execute_line("open Papers")
        assert "Query pattern" in repl.execute_line("schema")
        columns = repl.execute_line("columns")
        assert "base attribute" in columns and "neighbor node" in columns

    def test_sql_export(self, repl):
        repl.execute_line("open Papers")
        repl.execute_line("filter year > 2005")
        sql = repl.execute_line("sql")
        assert sql.startswith("SELECT")
        assert "GROUP BY" in sql

    def test_sql_without_mapping(self, toy):
        bare = Repl(toy.schema, toy.graph, mapping=None)
        bare.execute_line("open Papers")
        assert "error:" in bare.execute_line("sql")

    def test_errors_are_messages_not_exceptions(self, repl):
        assert "error:" in repl.execute_line("open Nonsense")
        assert "unknown command" in repl.execute_line("frobnicate")
        assert "error:" in repl.execute_line("filter year > 2005")  # no table

    def test_non_numeric_arguments_are_usage_errors(self, repl):
        """Regression: these used to raise raw ValueError through
        execute_line instead of returning an error: line."""
        repl.execute_line("open Papers")
        for line in ("revert abc", "rows x", "rank x", "seeall x title",
                     "single x Authors", "rows 0", "rows -3", "revert -1",
                     "rank 0"):
            out = repl.execute_line(line)
            assert out.startswith("error:"), f"{line!r} produced {out!r}"

    def test_single_column_name_ending_in_digit(self, repl):
        """Regression: 'single 0 Top 10' treated 10 as a reference index and
        looked up column 'Top'; the full column name must be tried first."""
        repl.execute_line("open Papers")
        etable = repl.session.current
        from dataclasses import replace

        authors = etable.column_by_display("Authors")
        renamed = replace(authors, display="Top 10")
        etable.columns[etable.columns.index(authors)] = renamed
        out = repl.execute_line("single 0 Top 10")
        assert "ETable: Authors" in out  # followed reference 0 of "Top 10"

    def test_single_trailing_index_still_works(self, repl):
        repl.execute_line("open Papers")
        out = repl.execute_line("single 0 Authors 1")
        assert "ETable: Authors" in out

    def test_single_unknown_column_message_preserved(self, repl):
        repl.execute_line("open Papers")
        out = repl.execute_line("single 0 Nonsense")
        assert out.startswith("error:") and "Nonsense" in out

    def test_single_unknown_column_with_digit_names_both_candidates(self, repl):
        """The error must mention what the user typed, not just the
        truncated fallback name."""
        repl.execute_line("open Papers")
        out = repl.execute_line("single 0 Top 10")
        assert out.startswith("error:")
        assert "Top 10" in out and "'Top'" in out

    def test_single_out_of_range_index(self, repl):
        repl.execute_line("open Papers")
        out = repl.execute_line("single 0 Authors 99")
        assert out.startswith("error:") and "out of range" in out

    def test_export_is_protocol_json(self, repl):
        """The export command emits the wire protocol's ETable payload —
        the CLI and the HTTP service share one serialization path."""
        import json

        from repro.service import protocol

        repl.execute_line("open Papers")
        repl.execute_line("filter year > 2005")
        payload = json.loads(repl.execute_line("export"))
        assert payload["etable"]["primary_type"] == "Papers"
        assert payload["etable"]["total_rows"] == 6
        assert "history" not in payload
        # Identical to serializing the session's table directly.
        assert payload["etable"] == protocol.etable_to_json(repl.session.current)

    def test_export_history(self, repl):
        import json

        repl.execute_line("open Papers")
        repl.execute_line("sort year desc")
        payload = json.loads(repl.execute_line("export history"))
        assert len(payload["history"]) == 2
        assert payload["history"][0]["description"] == "Open 'Papers' table"

    def test_export_round_trips_through_protocol(self, repl, toy):
        import json

        from repro.service import protocol

        repl.execute_line("open Papers")
        repl.execute_line("hide page_start")
        payload = json.loads(repl.execute_line("export"))
        rebuilt = protocol.etable_from_json(payload["etable"], toy.graph)
        assert rebuilt.pattern == repl.session.current.pattern
        assert rebuilt.hidden_columns == repl.session.current.hidden_columns

    def test_export_usage_errors(self, repl):
        assert "error:" in repl.execute_line("export")  # no table open
        repl.execute_line("open Papers")
        assert "error:" in repl.execute_line("export bogus")

    def test_quit(self, repl):
        assert repl.execute_line("quit") == "bye"
        assert repl.done

    def test_help(self, repl):
        assert "open <Type>" in repl.execute_line("help")

    def test_run_script(self, repl):
        outputs = repl.run_script(
            "open Conferences\nfilter acronym = SIGMOD\npivot Papers\nquit\n"
            "open Papers"
        )
        assert outputs[-1] == "bye"  # execution stops at quit
        assert len(outputs) == 4


class TestEngines:
    def test_runs_the_planned_engine(self, toy):
        # The REPL takes no engine; the session fuzzer drives the others.
        repl = Repl(toy.schema, toy.graph)
        assert repl.session.engine == "planned"
        assert "error:" not in repl.execute_line("open Papers")
        assert len(repl.session.current) == 7
        assert "cache: 0 hits / 1 misses" in repl.execute_line("plan")
