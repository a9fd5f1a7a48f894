"""A command-driven front end for ETable sessions.

The paper's prototype is a web application; this module provides the same
interaction vocabulary as a line-oriented interface so the full system is
usable from a terminal (see ``examples/interactive_cli.py``) and — more
importantly for a library — so the whole action surface is drivable and
testable through plain strings.

The REPL is a *thin client of the wire protocol*: every session action is
parsed into JSON params and dispatched through
:func:`repro.service.protocol.apply_action` — the same entry point the
HTTP service and the action journal use — so the CLI exercises exactly the
code path a remote client would.

Commands (one per line)::

    tables                          list entity types to open
    open <Type>                     open a table               (U1)
    filter <attr> <op> <value>      filter rows; op: = != < <= > >= like (U3)
    nfilter <column> <attr> <op> <value>
                                    filter by a neighbor column (subquery)
    pivot <column>                  pivot on a reference column (U4)
    seeall <row#> <column>          expand one cell             (U2)
    single <row#> <column> [<n>]    follow the n-th reference in a cell
    sort <column> [desc]            sort rows
    hide <column> | show <column>   column visibility
    rank [k]                        keep the k best columns (future work #3)
    revert <step#>                  return to a history step
    rows [n]                        print the current table
    export [history]                dump the ETable (+history) as JSON
    plan                            show the execution plan + cache stats
    columns | schema | history | sql
    help | quit
"""

from __future__ import annotations

import json
import shlex
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import InvalidAction, ReproError
from repro.tgm.conditions import AttributeCompare, AttributeLike, Condition
from repro.tgm.instance_graph import InstanceGraph
from repro.tgm.schema_graph import SchemaGraph
from repro.core.render import render_etable
from repro.core.session import EtableSession

_OPS = {"=", "!=", "<", "<=", ">", ">="}


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]


def parse_command(line: str) -> Command | None:
    """Tokenize one input line; None for blank lines and comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    try:
        parts = shlex.split(stripped)
    except ValueError as error:
        raise InvalidAction(f"cannot parse command: {error}") from None
    return Command(parts[0].lower(), tuple(parts[1:]))


def parse_value(text: str) -> Any:
    """Literal inference: int, float, bool, else string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def build_condition(attribute: str, op: str, raw_value: str) -> Condition:
    if op.lower() == "like":
        return AttributeLike(attribute, raw_value)
    if op not in _OPS:
        raise InvalidAction(
            f"unknown operator {op!r}; use one of {sorted(_OPS)} or 'like'"
        )
    return AttributeCompare(attribute, op, parse_value(raw_value))


class Repl:
    """Executes command lines against an :class:`EtableSession`.

    Every command returns its textual output, so the class is a pure
    string-to-string machine around the session — trivially scriptable.
    """

    def __init__(
        self,
        schema: SchemaGraph,
        graph: InstanceGraph,
        mapping=None,
        max_rows: int = 10,
    ) -> None:
        self.session = EtableSession(schema, graph)
        self.mapping = mapping  # TranslationMap, enables the 'sql' command
        self.max_rows = max_rows
        self.done = False
        self._handlers: dict[str, Callable[[tuple[str, ...]], str]] = {
            "tables": self._cmd_tables,
            "open": self._cmd_open,
            "filter": self._cmd_filter,
            "nfilter": self._cmd_nfilter,
            "pivot": self._cmd_pivot,
            "seeall": self._cmd_seeall,
            "single": self._cmd_single,
            "sort": self._cmd_sort,
            "hide": self._cmd_hide,
            "show": self._cmd_show,
            "rank": self._cmd_rank,
            "revert": self._cmd_revert,
            "rows": self._cmd_rows,
            "export": self._cmd_export,
            "plan": self._cmd_plan,
            "columns": self._cmd_columns,
            "schema": self._cmd_schema,
            "history": self._cmd_history,
            "sql": self._cmd_sql,
            "help": self._cmd_help,
            "quit": self._cmd_quit,
            "exit": self._cmd_quit,
        }

    # ------------------------------------------------------------------
    def execute_line(self, line: str) -> str:
        command = parse_command(line)
        if command is None:
            return ""
        handler = self._handlers.get(command.name)
        if handler is None:
            return f"unknown command {command.name!r}; try 'help'"
        try:
            return handler(command.args)
        except ReproError as error:
            return f"error: {error}"

    def run_script(self, text: str) -> list[str]:
        """Execute many lines; returns the per-line outputs."""
        outputs = []
        for line in text.splitlines():
            outputs.append(self.execute_line(line))
            if self.done:
                break
        return outputs

    def _dispatch(self, action: str, params: dict[str, Any]) -> dict[str, Any]:
        """One protocol round trip against the local session.

        Everything a remote client could do goes through the same
        :func:`repro.service.protocol.apply_action` dispatch — the REPL
        only parses text and renders results. Imported lazily so the core
        package never depends on the service layer at import time (the
        service imports core, not the other way around).
        """
        from repro.service import protocol as wire

        return wire.apply_action(self.session, action, params)

    @staticmethod
    def _condition_payload(condition: Condition) -> dict[str, Any]:
        from repro.service import protocol as wire

        return wire.condition_to_json(condition)

    # ------------------------------------------------------------------
    # Command handlers
    # ------------------------------------------------------------------
    def _cmd_tables(self, args: tuple[str, ...]) -> str:
        names = self._dispatch("tables", {})["tables"]
        return "tables: " + ", ".join(names)

    def _cmd_open(self, args: tuple[str, ...]) -> str:
        _require(args, 1, "open <Type>")
        self._dispatch("open", {"type": args[0]})
        return self._table_text()

    def _cmd_filter(self, args: tuple[str, ...]) -> str:
        _require(args, 3, "filter <attr> <op> <value>")
        condition = build_condition(args[0], args[1], " ".join(args[2:]))
        self._dispatch("filter",
                       {"condition": self._condition_payload(condition)})
        return self._table_text()

    def _cmd_nfilter(self, args: tuple[str, ...]) -> str:
        if len(args) < 4:
            raise InvalidAction("usage: nfilter <column> <attr> <op> <value>")
        condition = build_condition(args[1], args[2], " ".join(args[3:]))
        self._dispatch("nfilter", {
            "column": args[0],
            "condition": self._condition_payload(condition),
        })
        return self._table_text()

    def _cmd_pivot(self, args: tuple[str, ...]) -> str:
        _require(args, 1, "pivot <column>")
        self._dispatch("pivot", {"column": " ".join(args)})
        return self._table_text()

    def _cmd_seeall(self, args: tuple[str, ...]) -> str:
        if len(args) < 2:
            raise InvalidAction("usage: seeall <row#> <column>")
        self._dispatch("seeall", {
            "row": self._row_index(args[0]),
            "column": " ".join(args[1:]),
        })
        return self._table_text()

    def _cmd_single(self, args: tuple[str, ...]) -> str:
        if len(args) < 2:
            raise InvalidAction("usage: single <row#> <column> [<ref#>]")
        row_index = self._row_index(args[0])
        etable = self.session.current
        assert etable is not None
        # The full tail is tried as a column name first so display names
        # that end in a digit (e.g. "Top 10") resolve; only when that fails
        # is a trailing integer treated as the reference index.
        index = 0
        try:
            column = etable.column_by_display(" ".join(args[1:]))
        except InvalidAction:
            if not (len(args) > 2 and args[-1].isdigit()):
                raise
            try:
                column = etable.column_by_display(" ".join(args[1:-1]))
            except InvalidAction:
                raise InvalidAction(
                    f"no ETable column titled {' '.join(args[1:])!r} "
                    f"or {' '.join(args[1:-1])!r}"
                ) from None
            index = int(args[-1])
        self._dispatch("single", {
            "row": row_index, "column": column.key, "ref": index,
        })
        return self._table_text()

    def _cmd_sort(self, args: tuple[str, ...]) -> str:
        if not args:
            raise InvalidAction("usage: sort <column> [desc]")
        descending = args[-1].lower() == "desc"
        column = " ".join(args[:-1]) if descending else " ".join(args)
        self._dispatch("sort", {"column": column, "descending": descending})
        return self._table_text()

    def _cmd_hide(self, args: tuple[str, ...]) -> str:
        _require(args, 1, "hide <column>")
        self._dispatch("hide", {"column": " ".join(args)})
        return self._table_text()

    def _cmd_show(self, args: tuple[str, ...]) -> str:
        _require(args, 1, "show <column>")
        self._dispatch("show", {"column": " ".join(args)})
        return self._table_text()

    def _cmd_rank(self, args: tuple[str, ...]) -> str:
        self._require_table()
        keep = _int_arg(args[0], "rank [k]") if args else 8
        result = self._dispatch("rank", {"keep": keep})
        lines = [item["explain"] for item in result["ranking"][:keep]]
        return "\n".join(lines + ["", self._table_text()])

    def _cmd_revert(self, args: tuple[str, ...]) -> str:
        _require(args, 1, "revert <step#>")
        step = _int_arg(args[0], "revert <step#>")  # history is shown 1-based
        self._dispatch("revert", {"index": step - 1})
        return self._table_text()

    def _cmd_rows(self, args: tuple[str, ...]) -> str:
        count = _int_arg(args[0], "rows [n]") if args else self.max_rows
        return self._table_text(max_rows=count)

    def _cmd_export(self, args: tuple[str, ...]) -> str:
        """Dump the current ETable (optionally plus history) as JSON.

        The payload comes from the wire protocol's ETable serializer, so a
        CLI export is byte-compatible with what the HTTP service returns.
        """
        self._require_table()
        include_history = False
        if args:
            if len(args) > 1 or args[0].lower() != "history":
                raise InvalidAction("usage: export [history]")
            include_history = True
        result = self._dispatch(
            "export", {"include_history": include_history}
        )
        return json.dumps(result, indent=2, default=str)

    def _cmd_plan(self, args: tuple[str, ...]) -> str:
        self._require_table()
        return self._dispatch("plan", {})["text"]

    def _cmd_columns(self, args: tuple[str, ...]) -> str:
        etable = self._require_table()
        lines = []
        for column in etable.columns:
            hidden = " (hidden)" if column.key in etable.hidden_columns else ""
            lines.append(
                f"  {column.display:32s} [{column.kind.value}]{hidden}"
            )
        return "\n".join(lines)

    def _cmd_schema(self, args: tuple[str, ...]) -> str:
        etable = self._require_table()
        return etable.pattern.to_ascii()

    def _cmd_history(self, args: tuple[str, ...]) -> str:
        lines = self._dispatch("history", {})["lines"]
        return "\n".join(lines) if lines else "(empty)"

    def _cmd_sql(self, args: tuple[str, ...]) -> str:
        etable = self._require_table()
        if self.mapping is None:
            raise InvalidAction(
                "this session has no translation map; construct the Repl "
                "with mapping=<TranslationMap> to enable SQL export"
            )
        from repro.core.sql_translation import pattern_to_sql

        translation = pattern_to_sql(
            etable.pattern, self.session.schema, self.mapping,
            self.session.graph,
        )
        return translation.sql

    def _cmd_help(self, args: tuple[str, ...]) -> str:
        return __doc__.split("Commands (one per line)::", 1)[1].strip()

    def _cmd_quit(self, args: tuple[str, ...]) -> str:
        self.done = True
        return "bye"

    # ------------------------------------------------------------------
    def _require_table(self):
        if self.session.current is None:
            raise InvalidAction("no table open; use 'open <Type>' first")
        return self.session.current

    def _row_index(self, text: str) -> int:
        etable = self._require_table()
        try:
            index = int(text)
        except ValueError:
            raise InvalidAction(f"expected a row number, got {text!r}") from None
        etable.row(index)  # validate now, so usage errors precede dispatch
        return index

    def _table_text(self, max_rows: int | None = None) -> str:
        etable = self._require_table()
        return render_etable(etable, max_rows=max_rows or self.max_rows,
                             max_refs=3, label_width=12)


def _require(args: tuple[str, ...], count: int, usage: str) -> None:
    if len(args) < count:
        raise InvalidAction(f"usage: {usage}")


def _int_arg(text: str, usage: str, minimum: int = 1) -> int:
    """Parse an integer command argument, reporting a usage error (not a
    raw ``ValueError``) for non-numbers and out-of-range values."""
    try:
        value = int(text)
    except ValueError:
        raise InvalidAction(
            f"expected an integer, got {text!r}; usage: {usage}"
        ) from None
    if value < minimum:
        raise InvalidAction(
            f"expected an integer >= {minimum}, got {text}; usage: {usage}"
        )
    return value
