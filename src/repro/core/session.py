"""Interactive ETable sessions: action dispatch + the history view.

The session is the programmatic equivalent of the paper's user interface
(Section 6): it holds the current enriched table, executes user-level
actions by compiling them to primitive operators, and records every step in
a history that supports reverting to any previous state (the left-hand
history panel of Figures 1 and 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import InvalidAction
from repro.tgm.conditions import (
    AttributeCompare,
    AttributeLike,
    Condition,
)
from repro.tgm.instance_graph import InstanceGraph, Node
from repro.tgm.schema_graph import SchemaGraph
from repro.core import actions as user_actions
from repro.core.engines import ENGINES
from repro.core.etable import ColumnKind, ColumnSpec, ETable, ETableRow, EntityRef
from repro.core.query_pattern import QueryPattern
from repro.core.transform import execute_pattern


def check_row_limit(row_limit: int | None) -> None:
    """Reject a negative ``row_limit``: a slice by it would silently drop
    the last rows instead of keeping the first ones."""
    if row_limit is not None and row_limit < 0:
        raise InvalidAction(
            f"row_limit must be >= 0 (or None), got {row_limit}"
        )


@dataclass(frozen=True)
class HistoryEntry:
    """One history-panel line: the action, its operator trace, and a full
    presentation snapshot (pattern + sort + hidden columns)."""

    description: str
    operators: tuple[str, ...]
    pattern: QueryPattern
    sort: tuple[str, bool] | None = None
    hidden: frozenset[str] = frozenset()


class EtableSession:
    """Drives ETable interaction over one typed graph database."""

    def __init__(
        self,
        schema: SchemaGraph,
        graph: InstanceGraph,
        row_limit: int | None = None,
        engine: str = "planned",
        executor: "CachingExecutor | None" = None,
    ) -> None:
        if engine not in ENGINES:
            raise InvalidAction(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        check_row_limit(row_limit)
        if executor is not None:
            if engine == "naive":
                # The caching executor always plans; silently serving the
                # planner to someone who asked for the naive oracle would
                # mask exactly the discrepancies the oracle exists to find.
                raise InvalidAction(
                    "a shared executor always goes through the planner; "
                    f"it cannot serve engine={engine!r}"
                )
            if executor.graph is not graph:
                raise InvalidAction(
                    "the shared executor was built over a different "
                    "instance graph"
                )
        self.schema = schema
        self.graph = graph
        self.row_limit = row_limit
        self.engine = engine
        self.current: ETable | None = None
        self.history: list[HistoryEntry] = []
        self._sort: tuple[str, bool] | None = None
        # Reuse of intermediate results (Section 9, future work #2): a
        # planned session runs through a CachingExecutor, so reverts and
        # repeated sub-queries skip execution. An explicit ``executor``
        # may be *shared between sessions* (the multi-user service hosts
        # many sessions over one executor so one user's work speeds up
        # another's).
        #
        # ``engine="incremental"`` layers the per-session action-delta
        # engine over that executor: refinement actions are answered from
        # the previous relation instead of re-matching the pattern. The
        # wrapper is per-session (it owns this session's result lineage).
        self._executor: "CachingExecutor | IncrementalExecutor | None" = None
        if engine != "naive":
            from repro.core.cache import CachingExecutor, IncrementalExecutor

            base = executor if executor is not None else CachingExecutor(graph)
            self._executor = (
                IncrementalExecutor(base) if engine == "incremental" else base
            )

    def _execute(self, pattern: QueryPattern) -> ETable:
        if self._executor is not None:
            return self._executor.execute(pattern, self.row_limit)
        return execute_pattern(pattern, self.graph, self.row_limit,
                               engine="naive")

    def explain_plan(self) -> str:
        """The current pattern's execution plan (and cache stats, if any).

        This is what the REPL's ``plan`` command prints: the inspectable
        :class:`~repro.core.planner.Plan` with per-step cost estimates.
        A planned session whose table has more than one node also prints
        the size of each node's semi-join reduction and the rows that
        survive it, since that is what the table was built from. An
        incremental session joins deltas instead and prints its counters.
        """
        from repro.core.planner import build_plan

        pattern = self._require_pattern()
        lines = [build_plan(pattern, self.graph).explain()]
        if self._executor is None:
            lines.append(
                "note: this session executes the naive reference matcher; "
                "the plan above shows what the planner would do"
            )
            return "\n".join(lines)
        from repro.core.cache import IncrementalExecutor

        incremental = (
            self._executor
            if isinstance(self._executor, IncrementalExecutor) else None
        )
        base = incremental.base if incremental is not None else self._executor
        if incremental is None and len(pattern.nodes) > 1:
            statistics = self.graph.statistics()
            sizes = {
                key: statistics.cardinality(pattern.node(key).type_name)
                if ids is None else len(ids)
                for key, ids in base.reduce(pattern).items()
            }
            lines.append(
                "reduction: semi-joins along the plan keep "
                + ", ".join(f"{key} {size}" for key, size in sizes.items())
                + f" ids; {sizes[pattern.primary_key]} rows survive"
            )
        stats = base.stats
        lines.append(
            f"cache: {stats.hits} hits / {stats.misses} misses "
            f"({stats.hit_rate:.0%}), {stats.prefix_hits} prefix hits "
            f"reusing {stats.reused_nodes} joined nodes, "
            f"{stats.delta_joins} delta joins"
        )
        if incremental is not None:
            lines.append(
                "reuse: intermediates cached per subpattern; extensions "
                "re-execute only their delta joins"
            )
            istats = incremental.stats
            lines.append(
                f"incremental: {istats.delta_actions} delta-answered, "
                f"{istats.replays} lineage replays, "
                f"{istats.replans} replans "
                f"(hit rate {istats.delta_hit_rate:.0%}), "
                f"{istats.rows_touched} rows touched"
            )
            if incremental.last_outcome:
                lines.append(f"  last action: {incremental.last_outcome}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # The default table list (Figure 9, component 1)
    # ------------------------------------------------------------------
    def default_table_list(self) -> list[str]:
        """Entity types a user can open to initiate a query."""
        return [node_type.name for node_type in self.schema.entity_types]

    # ------------------------------------------------------------------
    # Pattern-changing actions
    # ------------------------------------------------------------------
    def open(self, type_name: str) -> ETable:
        """Open a new table (action U1)."""
        pattern, trace = user_actions.action_open(self.schema, type_name)
        return self._apply(f"Open {type_name!r} table", trace, pattern,
                           reset_presentation=True)

    def filter(self, condition: Condition) -> ETable:
        """Filter the current table's rows by a condition on the primary."""
        pattern, trace = user_actions.action_filter(
            self._require_pattern(), condition
        )
        description = (
            f"Filter {self.current_primary_type()!r} table by "
            f"({condition.describe()})"
        )
        return self._apply(description, trace, pattern)

    def filter_attribute(self, attribute: str, op: str, value: Any) -> ETable:
        """Convenience: ``filter(AttributeCompare(attribute, op, value))``."""
        return self.filter(AttributeCompare(attribute, op, value))

    def filter_like(self, attribute: str, pattern_text: str) -> ETable:
        """Convenience: ``filter(AttributeLike(attribute, pattern_text))``."""
        return self.filter(AttributeLike(attribute, pattern_text))

    def filter_by_neighbor(
        self, column: str | ColumnSpec, inner: Condition
    ) -> ETable:
        """Filter rows by a neighbor column's content (a subquery filter)."""
        spec = self.resolve_column(column)
        if spec.kind is not ColumnKind.NEIGHBOR:
            raise InvalidAction(
                f"filter_by_neighbor needs a neighbor column, got "
                f"{spec.kind.value!r}"
            )
        pattern, trace = user_actions.action_filter_by_neighbor(
            self._require_pattern(), self.schema, spec.key, inner
        )
        description = (
            f"Filter {self.current_primary_type()!r} table by "
            f"({spec.display} {inner.describe()})"
        )
        return self._apply(description, trace, pattern)

    def pivot(self, column: str | ColumnSpec) -> ETable:
        """Pivot on an entity-reference column (action U4)."""
        spec = self.resolve_column(column)
        pattern, trace = user_actions.action_pivot(
            self._require_pattern(), self.schema, spec
        )
        return self._apply(f"Pivot to {spec.display!r}", trace, pattern,
                           reset_presentation=True)

    def single(self, ref: EntityRef | Node | int) -> ETable:
        """Click one entity reference (Figure 2a)."""
        node = self._resolve_node(ref)
        pattern, trace = user_actions.action_single(self.schema, self.graph, node)
        label = node.label(self.schema)
        return self._apply(
            f"Show {node.type_name!r} entity {label!r}", trace, pattern,
            reset_presentation=True,
        )

    def see_all(self, row: ETableRow | int, column: str | ColumnSpec) -> ETable:
        """Click the count badge of a cell (action U2, Figure 2b)."""
        etable = self._require_etable()
        if isinstance(row, int):
            row = etable.row(row)
        spec = self.resolve_column(column)
        node = etable.node_of(row)
        pattern, trace = user_actions.action_see_all(
            self._require_pattern(), self.schema, etable, node, spec
        )
        label = node.label(self.schema)
        return self._apply(
            f"See all {spec.display!r} of {label!r}", trace, pattern,
            reset_presentation=True,
        )

    # ------------------------------------------------------------------
    # Presentation actions (pattern unchanged, still history-logged)
    # ------------------------------------------------------------------
    def sort(self, column: str | ColumnSpec, descending: bool = False) -> ETable:
        """Sort rows by a base value or by reference count."""
        etable = self._require_etable()
        spec = self.resolve_column(column)
        etable.sort(spec.key, descending=descending)
        self._sort = (spec.key, descending)
        direction = "desc" if descending else "asc"
        if spec.kind is ColumnKind.BASE:
            description = f"Sort table by {spec.display} ({direction})"
        else:
            description = f"Sort table by # of {spec.display} ({direction})"
        self._log(description, ())
        return etable

    def hide_column(self, column: str | ColumnSpec) -> ETable:
        etable = self._require_etable()
        spec = self.resolve_column(column)
        etable.hide_column(spec.key)
        self._log(f"Hide column {spec.display!r}", ())
        return etable

    def show_column(self, column: str | ColumnSpec) -> ETable:
        etable = self._require_etable()
        spec = self.resolve_column(column)
        etable.show_column(spec.key)
        self._log(f"Show column {spec.display!r}", ())
        return etable

    # ------------------------------------------------------------------
    # History (Figure 9, component 4)
    # ------------------------------------------------------------------
    def revert(self, index: int) -> ETable:
        """Revert to history entry ``index`` (0-based).

        Re-executes that entry's pattern snapshot and re-applies its sort
        and hidden-column state; the revert itself is appended to history
        so the trail stays complete.
        """
        if not 0 <= index < len(self.history):
            raise InvalidAction(
                f"history index {index} out of range (0..{len(self.history) - 1})"
            )
        entry = self.history[index]
        etable = self._restore(entry)
        self._log(f"Revert to step {index + 1}: {entry.description}", ())
        return etable

    def history_lines(self) -> list[str]:
        """Numbered history, as shown in the panel of Figure 1."""
        return [
            f"{number}. {entry.description}"
            for number, entry in enumerate(self.history, start=1)
        ]

    def restore_history(self, entries: list[HistoryEntry]) -> ETable | None:
        """Replace the whole history and re-materialize its final state.

        This is the journal-checkpoint restore path of ``repro.service``:
        a checkpoint record carries the full serialized history, and
        replaying it must reproduce the *identical* history list plus the
        ETable of its last entry (pattern re-execution rides the prefix
        cache, so restarts are cheap). Not a user action — nothing is
        appended to the history.
        """
        self.history = list(entries)
        if not self.history:
            self.current = None
            self._sort = None
            return None
        return self._restore(self.history[-1])

    def _restore(self, entry: HistoryEntry) -> ETable:
        """Make ``entry``'s state current: re-execute its pattern, then
        re-apply its hidden columns and sort."""
        etable = self._execute(entry.pattern)
        etable.hidden_columns |= set(entry.hidden)
        if entry.sort is not None:
            etable.sort(entry.sort[0], descending=entry.sort[1])
        self.current = etable
        self._sort = entry.sort
        return etable

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def current_primary_type(self) -> str:
        return self._require_pattern().primary.type_name

    def _require_etable(self) -> ETable:
        if self.current is None:
            raise InvalidAction("no ETable is open; call open() first")
        return self.current

    def _require_pattern(self) -> QueryPattern:
        return self._require_etable().pattern

    def resolve_column(self, column: str | ColumnSpec) -> ColumnSpec:
        """Resolve a column by spec, exact key, or header text.

        Public because protocol clients (the wire protocol, the REPL)
        address columns by string; exact keys are tried first so
        programmatic use stays stable, then display names.
        """
        if isinstance(column, ColumnSpec):
            return column
        etable = self._require_etable()
        for spec in etable.columns:
            if spec.key == column:
                return spec
        return etable.column_by_display(column)

    def _resolve_node(self, ref: EntityRef | Node | int) -> Node:
        if isinstance(ref, Node):
            return ref
        if isinstance(ref, EntityRef):
            return self.graph.node(ref.node_id)
        return self.graph.node(ref)

    def _apply(
        self,
        description: str,
        trace: list[str],
        pattern: QueryPattern,
        reset_presentation: bool = False,
    ) -> ETable:
        etable = self._execute(pattern)
        previous_hidden = (
            set()
            if reset_presentation or self.current is None
            else {
                key
                for key in self.current.hidden_columns
                if any(column.key == key for column in etable.columns)
            }
        )
        etable.hidden_columns |= previous_hidden
        if reset_presentation:
            self._sort = None
        elif self._sort is not None:
            key, descending = self._sort
            if any(column.key == key for column in etable.columns):
                etable.sort(key, descending=descending)
            else:
                self._sort = None
        self.current = etable
        self._log(description, tuple(trace))
        return etable

    def _log(self, description: str, trace: tuple[str, ...]) -> None:
        etable = self._require_etable()
        self.history.append(
            HistoryEntry(
                description=description,
                operators=trace,
                pattern=etable.pattern,
                sort=self._sort,
                hidden=frozenset(etable.hidden_columns),
            )
        )
