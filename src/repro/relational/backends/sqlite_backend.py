"""A real DBMS backend: the stdlib ``sqlite3`` engine.

Loading copies a :class:`~repro.relational.database.Database` into an
in-memory (or file-backed) SQLite database: one ``CREATE TABLE`` per catalog
schema with type affinities (BOOLEAN folds to INTEGER — SQLite has no
boolean storage class), ``PRIMARY KEY`` / ``NOT NULL`` constraints, and a
hash-equivalent index on every foreign-key column so FK joins execute the
way the paper's PostgreSQL backend would.

Two user functions close the dialect gap with the in-memory engine:

* ``ENT_LIST`` — the Section-8 aggregate, registered via
  ``Connection.create_aggregate``. SQLite aggregates must return a storage
  class, so the aggregate emits a tagged JSON array which
  :meth:`SqliteBackend.execute` decodes back into the tuple the in-memory
  engine would have produced; the general query pattern runs unchanged.
* ``LIKE`` — overridden with the in-memory engine's pattern compiler so
  LIKE is case-insensitive for *all* characters (SQLite's built-in LIKE
  only folds ASCII) and matches across newlines.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Any

from repro.relational.algebra import Relation
from repro.relational.backends.base import (
    BackendCapabilities,
    SqlBackend,
    quote_identifier,
    register_backend,
)
from repro.relational.database import Database
from repro.relational.datatypes import DataType
from repro.relational.expressions import _compile_like
from repro.relational.schema import TableSchema

_AFFINITY = {
    DataType.INTEGER: "INTEGER",
    DataType.REAL: "REAL",
    DataType.TEXT: "TEXT",
    DataType.BOOLEAN: "INTEGER",
}

# Finalized ENT_LIST cells travel through SQLite as tagged JSON text; the
# tag uses a record-separator control character so it can never collide
# with stored table data.
_ENT_LIST_TAG = "\x1eent_list\x1e"


class _EntListAggregate:
    """Distinct non-null inputs in first-appearance order (Section 8)."""

    def __init__(self) -> None:
        self._seen: set[Any] = set()
        self._values: list[Any] = []

    def step(self, value: Any) -> None:
        if value is None or value in self._seen:
            return
        self._seen.add(value)
        self._values.append(value)

    def finalize(self) -> str:
        return _ENT_LIST_TAG + json.dumps(self._values)


def _decode_cell(value: Any) -> Any:
    if isinstance(value, str) and value.startswith(_ENT_LIST_TAG):
        return tuple(json.loads(value[len(_ENT_LIST_TAG):]))
    return value


def _like(pattern: Any, value: Any) -> int | None:
    """``value LIKE pattern`` with the in-memory engine's exact semantics."""
    if pattern is None or value is None:
        return None
    return 1 if _compile_like(str(pattern)).match(str(value)) else 0


_quote = quote_identifier


def _create_table_sql(schema: TableSchema) -> str:
    parts: list[str] = []
    for column in schema.columns:
        spec = f"{_quote(column.name)} {_AFFINITY[column.dtype]}"
        if not column.nullable and column.name not in schema.primary_key:
            spec += " NOT NULL"
        parts.append(spec)
    if schema.primary_key:
        keys = ", ".join(_quote(name) for name in schema.primary_key)
        parts.append(f"PRIMARY KEY ({keys})")
    return f"CREATE TABLE {_quote(schema.name)} ({', '.join(parts)})"


def _adapt_value(value: Any) -> Any:
    if isinstance(value, bool):
        return int(value)
    return value


@register_backend
class SqliteBackend(SqlBackend):
    """Backend over Python's bundled SQLite engine.

    ``path`` defaults to ``":memory:"``; pass a filesystem path for a
    persistent database (the load then rebuilds it from scratch).
    """

    name = "sqlite"
    capabilities = BackendCapabilities(
        dialect="sqlite", preserves_booleans=False
    )

    def __init__(
        self,
        database: Database | None = None,
        path: str = ":memory:",
    ) -> None:
        self._path = path
        self._connection: sqlite3.Connection | None = None
        super().__init__(database)

    # ------------------------------------------------------------------
    @property
    def connection(self) -> sqlite3.Connection | None:
        return self._connection

    def _do_load(self, database: Database) -> None:
        self.close()
        connection = sqlite3.connect(self._path)
        connection.create_aggregate("ENT_LIST", 1, _EntListAggregate)
        connection.create_function("LIKE", 2, _like)
        for table in database.tables.values():
            schema = table.schema
            connection.execute(f"DROP TABLE IF EXISTS {_quote(schema.name)}")
            connection.execute(_create_table_sql(schema))
            if table.rows:
                placeholders = ", ".join("?" * len(schema.columns))
                connection.executemany(
                    f"INSERT INTO {_quote(schema.name)} VALUES ({placeholders})",
                    [tuple(_adapt_value(v) for v in row) for row in table.rows],
                )
            for fk in schema.foreign_keys:
                for column in fk.columns:
                    index_name = _quote(f"idx_{schema.name}_{column}")
                    connection.execute(
                        f"CREATE INDEX IF NOT EXISTS {index_name} "
                        f"ON {_quote(schema.name)} ({_quote(column)})"
                    )
        connection.commit()
        self._connection = connection

    def execute(self, sql: str) -> Relation:
        self._require_loaded()
        assert self._connection is not None
        cursor = self._connection.execute(sql)
        columns = [(None, description[0]) for description in cursor.description]
        rows = [
            tuple(_decode_cell(value) for value in row)
            for row in cursor.fetchall()
        ]
        return Relation(columns, rows)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
