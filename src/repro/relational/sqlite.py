"""The SQL engine: a :class:`~repro.relational.database.Database` loaded
into the stdlib ``sqlite3`` engine.

The paper's server runs ETable's translated SQL on PostgreSQL (Section 6.2);
this reproduction runs it on SQLite. Construction copies the database into
an in-memory SQLite database: one ``CREATE TABLE`` per catalog schema with
type affinities (BOOLEAN folds to INTEGER — SQLite has no boolean storage
class, and ``sqlite3`` binds ``True``/``False`` as 1/0), ``PRIMARY KEY`` /
``NOT NULL`` constraints, and an index on every foreign-key column so FK
joins execute the way the paper's PostgreSQL backend would.

Two user functions complete the SQL the translator emits:

* ``ENT_LIST`` — the Section 8 aggregate (PostgreSQL's ``json_agg``),
  registered via ``Connection.create_aggregate``. SQLite aggregates must
  return a storage class, so the aggregate emits a tagged JSON array which
  :meth:`SqliteDatabase.execute` decodes back into a tuple.
* ``LIKE`` — overridden with :func:`repro.tgm.conditions.compile_like`, so
  LIKE means what a graph ``like`` filter means: case-insensitive for all
  characters (SQLite's built-in LIKE folds only ASCII) and matching across
  newlines.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from typing import Any

from repro.relational.database import Database
from repro.relational.datatypes import DataType
from repro.relational.schema import TableSchema
from repro.tgm.conditions import compile_like

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


@dataclass(frozen=True)
class QueryResult:
    """The rows of one query, under the column names SQLite reports."""

    columns: tuple[str, ...]
    rows: list[tuple[Any, ...]]

    def column_position(self, name: str) -> int:
        return self.columns.index(name)


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
    """``value LIKE pattern`` with the graph conditions' semantics."""
    if pattern is None or value is None:
        return None
    return 1 if compile_like(str(pattern)).match(str(value)) else 0


def quote_identifier(name: str) -> str:
    """Double-quote ``name`` so reserved words survive as identifiers."""
    return '"' + name.replace('"', '""') + '"'


def _create_table_sql(schema: TableSchema) -> str:
    parts: list[str] = []
    for column in schema.columns:
        spec = f"{quote_identifier(column.name)} {_AFFINITY[column.dtype]}"
        if not column.nullable and column.name not in schema.primary_key:
            spec += " NOT NULL"
        parts.append(spec)
    if schema.primary_key:
        keys = ", ".join(quote_identifier(name) for name in schema.primary_key)
        parts.append(f"PRIMARY KEY ({keys})")
    return f"CREATE TABLE {quote_identifier(schema.name)} ({', '.join(parts)})"


def _load(connection: sqlite3.Connection, database: Database) -> None:
    connection.create_aggregate("ENT_LIST", 1, _EntListAggregate)
    connection.create_function("LIKE", 2, _like)
    for table in database.tables.values():
        schema = table.schema
        name = quote_identifier(schema.name)
        connection.execute(_create_table_sql(schema))
        if table.rows:
            placeholders = ", ".join("?" * len(schema.columns))
            connection.executemany(
                f"INSERT INTO {name} VALUES ({placeholders})", table.rows
            )
        for fk in schema.foreign_keys:
            for column in fk.columns:
                index_name = quote_identifier(f"idx_{schema.name}_{column}")
                connection.execute(
                    f"CREATE INDEX IF NOT EXISTS {index_name} "
                    f"ON {name} ({quote_identifier(column)})"
                )
    connection.commit()


class SqliteDatabase:
    """One :class:`Database`, loaded into SQLite when constructed.

    Load once, then run any number of :meth:`execute` calls; close it, or
    use it as a context manager, to release the connection.
    """

    def __init__(self, database: Database) -> None:
        connection = sqlite3.connect(":memory:")
        try:
            _load(connection, database)
        except BaseException:
            connection.close()
            raise
        self._connection = connection

    def execute(self, sql: str) -> QueryResult:
        """Run one SELECT; ``ENT_LIST`` cells come back as tuples."""
        cursor = self._connection.execute(sql)
        columns = tuple(description[0] for description in cursor.description)
        rows = [
            tuple(_decode_cell(value) for value in row)
            for row in cursor.fetchall()
        ]
        return QueryResult(columns, rows)

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "SqliteDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
