"""ASCII rendering of enriched tables and of the four-component interface.

The paper's front-end is a web UI (Figure 9); this module reproduces its
presentation deterministically in text so every figure can be regenerated in
a terminal: the main view (the enriched table of Figure 1, with truncated
labels and count badges), the default table list, the schema view (query
pattern diagram, Figure 6), and the history panel.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.etable import ColumnKind, ColumnSpec, ETable, ETableRow


def _shorten(text: str, width: int) -> str:
    if len(text) <= width:
        return text
    if width <= 1:
        return text[:width]
    return text[: width - 1] + "…"


def render_cell(
    etable: ETable,
    row: ETableRow,
    column: ColumnSpec,
    max_refs: int = 5,
    label_width: int = 10,
) -> str:
    """One cell of ``etable``: a scalar, or ``⟨count⟩ label, label, …``
    for references.

    Mirrors Figure 1: each entity-reference cell shows the reference count
    plus the first few labels, truncated (e.g. ``7│H. V. Jaga…, Adriane C…``).
    """
    if column.kind is ColumnKind.BASE:
        value = row.attributes.get(column.key)
        return "" if value is None else str(value)
    ids = row.cells.get(column.key, ())
    if not ids:
        return "0│"
    label_of = etable.graph.label_of
    labels = ", ".join(
        _shorten(str(label_of(node_id)), label_width)
        for node_id in ids[:max_refs]
    )
    suffix = ", …" if len(ids) > max_refs else ""
    return f"{len(ids)}│{labels}{suffix}"


def render_etable(
    etable: ETable,
    max_rows: int = 12,
    max_refs: int = 4,
    label_width: int = 10,
    max_cell_width: int = 46,
) -> str:
    """The main view: a boxed table over the visible columns."""
    columns = etable.visible_columns()
    header = [column.display for column in columns]
    body: list[list[str]] = []
    for row in etable.rows[:max_rows]:
        body.append(
            [
                _shorten(
                    render_cell(etable, row, column, max_refs, label_width),
                    max_cell_width,
                )
                for column in columns
            ]
        )
    widths = [
        min(
            max(
                len(header[index]),
                max((len(line[index]) for line in body), default=0),
            ),
            max_cell_width,
        )
        for index in range(len(columns))
    ]
    lines = [
        f"ETable: {etable.primary_type}  "
        f"({len(etable.rows)} rows, showing {min(max_rows, len(etable.rows))})"
    ]
    lines.append(_format_line(header, widths))
    lines.append("─┼─".join("─" * width for width in widths))
    for line in body:
        lines.append(_format_line(line, widths))
    if len(etable.rows) > max_rows:
        lines.append(f"… {len(etable.rows) - max_rows} more rows")
    return "\n".join(lines)


def _format_line(cells: Sequence[str], widths: Sequence[int]) -> str:
    return " │ ".join(
        _shorten(cell, width).ljust(width) for cell, width in zip(cells, widths)
    )


def render_default_table_list(type_names: Sequence[str]) -> str:
    """Component 1 of Figure 9: the list of entity types."""
    lines = ["ETABLE BUILDER — Choose a table"]
    lines.extend(f"  ▸ {name}" for name in type_names)
    return "\n".join(lines)


def render_history(history_lines: Sequence[str]) -> str:
    """Component 4 of Figure 9: the numbered action history."""
    lines = ["HISTORY"]
    lines.extend(f"  {line}" for line in history_lines)
    if len(history_lines) == 0:
        lines.append("  (empty)")
    return "\n".join(lines)


def render_interface(session, **table_kwargs: Any) -> str:
    """The full four-component screen of Figure 9.

    ``session`` is an :class:`repro.core.session.EtableSession`; imported
    loosely to avoid an import cycle.
    """
    parts: list[str] = []
    parts.append("═" * 72)
    parts.append(render_default_table_list(session.default_table_list()))
    parts.append("─" * 72)
    if session.current is not None:
        parts.append(render_etable(session.current, **table_kwargs))
        parts.append("─" * 72)
        parts.append("SCHEMA VIEW (current query pattern)")
        parts.append(session.current.pattern.to_ascii())
    else:
        parts.append("(no table open)")
    parts.append("─" * 72)
    parts.append(render_history(session.history_lines()))
    parts.append("═" * 72)
    return "\n".join(parts)
