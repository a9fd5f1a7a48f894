"""The relational side: typed tables, a SQL parser, and the SQLite engine.

The paper's prototype stores its data in PostgreSQL (Section 6.2). Here a
:class:`Database` of typed tables with primary/foreign-key enforcement is
what the generators build and the Appendix A translator reads;
:class:`SqliteDatabase` loads it into the stdlib ``sqlite3`` engine, which
runs the SQL that ETable's translation layer emits (Section 8), including
``ENT_LIST`` — our analogue of PostgreSQL's ``json_agg``. The parser reads
the FK–PK join queries that :mod:`repro.core.from_sql` turns into ETable
queries.

Public entry points::

    from repro.relational import (
        DataType, Database, SqliteDatabase, table_schema,
    )

    db = Database("demo")
    db.create_table(table_schema("conferences", [("id", DataType.INTEGER),
                                                 ("acronym", DataType.TEXT)],
                                 primary_key="id"))
    db.insert("conferences", {"id": 1, "acronym": "SIGMOD"})
    with SqliteDatabase(db) as sql:
        result = sql.execute("SELECT acronym FROM conferences WHERE id = 1")
"""

from repro.relational.database import Database
from repro.relational.datatypes import DataType, coerce, infer_type
from repro.relational.schema import Column, ForeignKey, TableSchema, table_schema
from repro.relational.sql.parser import parse, parse_select
from repro.relational.sqlite import QueryResult, SqliteDatabase, quote_identifier
from repro.relational.table import Table

__all__ = [
    "Column",
    "DataType",
    "Database",
    "ForeignKey",
    "QueryResult",
    "SqliteDatabase",
    "Table",
    "TableSchema",
    "coerce",
    "infer_type",
    "parse",
    "parse_select",
    "quote_identifier",
    "table_schema",
]
