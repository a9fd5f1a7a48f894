"""Unit tests for the SQLite engine (:class:`SqliteDatabase`)."""

import sqlite3

import pytest

from repro.relational import (
    DataType,
    Database,
    ForeignKey,
    SqliteDatabase,
    quote_identifier,
    table_schema,
)


@pytest.fixture(scope="module")
def small_db():
    db = Database("small")
    db.create_table(table_schema(
        "bands",
        [("id", DataType.INTEGER), ("name", DataType.TEXT),
         ("active", DataType.BOOLEAN)],
        primary_key="id",
    ))
    db.create_table(table_schema(
        "albums",
        [("id", DataType.INTEGER), ("band_id", DataType.INTEGER),
         ("title", DataType.TEXT), ("rating", DataType.REAL)],
        primary_key="id",
        foreign_keys=[ForeignKey("band_id", "bands", "id")],
    ))
    db.insert("bands", (1, "Unicode Band", True))
    db.insert("bands", (2, "ascii band", False))
    db.insert("albums", (10, 1, "First", 4.5))
    db.insert("albums", (11, 1, "Second", None))
    db.insert("albums", (12, 2, "Début", 3.0))
    return db


@pytest.fixture(scope="module")
def small_sql(small_db):
    with SqliteDatabase(small_db) as engine:
        yield engine


class TestLifecycle:
    def test_context_manager_closes(self, small_db):
        with SqliteDatabase(small_db) as engine:
            assert engine.execute("SELECT COUNT(*) FROM bands").rows == [(2,)]
        with pytest.raises(sqlite3.ProgrammingError):
            engine.execute("SELECT 1")


class TestParity:
    """The query shapes the translators emit return the rows SQL defines."""

    QUERIES = {
        "SELECT id, name FROM bands":
            [(1, "Unicode Band"), (2, "ascii band")],
        "SELECT b.name, a.title FROM bands b, albums a "
        "WHERE a.band_id = b.id AND a.rating >= 4.0":
            [("Unicode Band", "First")],
        "SELECT DISTINCT b.id AS etable_key FROM bands b, albums a "
        "WHERE a.band_id = b.id":
            [(1,), (2,)],
        "SELECT b.name FROM bands b WHERE EXISTS "
        "(SELECT 1 FROM albums a WHERE a.band_id = b.id AND a.rating > 4.0)":
            [("Unicode Band",)],
        "SELECT b.name FROM bands b WHERE b.name LIKE '%band%'":
            [("Unicode Band",), ("ascii band",)],
    }

    @pytest.mark.parametrize("sql", list(QUERIES))
    def test_same_rows(self, small_sql, sql):
        actual = small_sql.execute(sql)
        assert sorted(actual.rows) == self.QUERIES[sql]

    def test_like_case_insensitive_beyond_ascii(self, small_sql):
        # SQLite's built-in LIKE folds only ASCII; the engine installs the
        # graph conditions' matcher, so accented characters fold too.
        sql = "SELECT title FROM albums WHERE title LIKE 'dé%'"
        assert small_sql.execute(sql).rows == [("Début",)]

    def test_not_like(self, small_sql):
        sql = "SELECT title FROM albums WHERE title NOT LIKE '%IR%' ORDER BY id"
        assert small_sql.execute(sql).rows == [("Second",), ("Début",)]

    def test_like_null_is_unknown(self, small_sql):
        assert small_sql.execute("SELECT NULL LIKE '%a%'").rows == [(None,)]

    def test_ent_list_aggregate(self, small_sql):
        result = small_sql.execute(
            "SELECT b.id AS etable_key, ENT_LIST(a.title) AS refs_1 "
            "FROM bands b, albums a WHERE a.band_id = b.id GROUP BY b.id"
        )
        key = result.column_position("etable_key")
        refs = result.column_position("refs_1")
        assert {row[key]: row[refs] for row in result.rows} == {
            1: ("First", "Second"),
            2: ("Début",),
        }

    def test_boolean_affinity_folds_to_integer(self, small_sql):
        # SQLite 3.23+ parses TRUE/FALSE as 1/0, matching the folded column.
        for literal, expected in (("TRUE", [(1, 1)]), ("FALSE", [(2, 0)])):
            rows = small_sql.execute(
                f"SELECT id, active FROM bands WHERE active = {literal}"
            ).rows
            assert rows == expected


def test_quote_identifier():
    assert quote_identifier("References") == '"References"'
    assert quote_identifier('odd"name') == '"odd""name"'
