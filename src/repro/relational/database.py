"""The database catalog: a set of named tables plus cross-table integrity.

It owns table creation, foreign-key enforcement on insert, and convenience
bulk-loading. :class:`repro.relational.sqlite.SqliteDatabase` loads it into
SQLite to run SQL (Section 6.2).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ForeignKeyViolation, SchemaError, UnknownTable
from repro.relational.schema import TableSchema
from repro.relational.table import Table


class Database:
    """A named collection of :class:`Table` objects with FK enforcement."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.tables: dict[str, Table] = {}

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        """Register a new table; FK targets must already exist."""
        if schema.name in self.tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        for fk in schema.foreign_keys:
            # Self-references are allowed before the table exists.
            if fk.ref_table == schema.name:
                ref_schema = schema
            else:
                ref_schema = self.table(fk.ref_table).schema
            for ref_col in fk.ref_columns:
                if not ref_schema.has_column(ref_col):
                    raise SchemaError(
                        f"foreign key of {schema.name!r} references missing column "
                        f"{fk.ref_table}.{ref_col}"
                    )
        table = Table(schema)
        self.tables[schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise UnknownTable(f"no table named {name!r}")
        del self.tables[name]

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownTable(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    @property
    def table_names(self) -> list[str]:
        return list(self.tables)

    # ------------------------------------------------------------------
    # Data loading with integrity checks
    # ------------------------------------------------------------------
    def insert(
        self, table_name: str, row: Sequence[Any] | Mapping[str, Any]
    ) -> tuple[Any, ...]:
        """Insert one row after verifying all foreign keys resolve."""
        table = self.table(table_name)
        values = table._normalize(row)
        self._check_foreign_keys(table, values)
        return table.insert(values)

    def insert_many(
        self, table_name: str, rows: Iterable[Sequence[Any] | Mapping[str, Any]]
    ) -> int:
        count = 0
        for row in rows:
            self.insert(table_name, row)
            count += 1
        return count

    def load_unchecked(
        self, table_name: str, rows: Iterable[Sequence[Any] | Mapping[str, Any]]
    ) -> int:
        """Bulk-load rows skipping FK checks (used by trusted generators)."""
        return self.table(table_name).insert_many(rows)

    def validate_integrity(self) -> list[str]:
        """Scan every table and return a list of FK violations (as strings).

        An empty list means the database is consistent. Generators use this
        after :meth:`load_unchecked`; tests assert it returns ``[]``.
        """
        problems: list[str] = []
        for table in self.tables.values():
            for row in table.rows:
                for fk in table.schema.foreign_keys:
                    if not self._fk_resolves(table, fk, row):
                        key = tuple(
                            row[table.schema.column_index(col)] for col in fk.columns
                        )
                        problems.append(
                            f"{table.name}{fk.columns!r}={key!r} has no match in "
                            f"{fk.ref_table}"
                        )
        return problems

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_foreign_keys(self, table: Table, values: tuple[Any, ...]) -> None:
        for fk in table.schema.foreign_keys:
            if not self._fk_resolves(table, fk, values):
                key = tuple(
                    values[table.schema.column_index(col)] for col in fk.columns
                )
                raise ForeignKeyViolation(
                    f"{table.name}.{fk.columns} = {key!r} does not reference an "
                    f"existing row of {fk.ref_table}"
                )

    def _fk_resolves(self, table: Table, fk, row: tuple[Any, ...]) -> bool:
        key = tuple(row[table.schema.column_index(col)] for col in fk.columns)
        if any(part is None for part in key):
            return True  # SQL semantics: NULL FK components always pass
        ref_table = self.table(fk.ref_table)
        if fk.ref_columns == ref_table.schema.primary_key:
            return ref_table.has_pk(*key)
        # Rare path: FK onto a non-PK column set.
        matches = ref_table.lookup(fk.ref_columns[0], key[0])
        if len(fk.ref_columns) == 1:
            return bool(matches)
        positions = [ref_table.schema.column_index(c) for c in fk.ref_columns]
        return any(
            tuple(candidate[pos] for pos in positions) == key for candidate in matches
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        summary = ", ".join(
            f"{name}({len(table)})" for name, table in self.tables.items()
        )
        return f"Database({self.name!r}: {summary})"
