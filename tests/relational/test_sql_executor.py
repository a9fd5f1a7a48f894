"""Unit tests for SQL execution against the engine (:class:`SqliteDatabase`)."""

import sqlite3

import pytest

from repro.relational import (
    DataType,
    Database,
    ForeignKey,
    SqliteDatabase,
    table_schema,
)


@pytest.fixture(scope="module")
def db():
    database = Database("sqltest")
    database.create_table(
        table_schema(
            "confs",
            [("id", DataType.INTEGER), ("acronym", DataType.TEXT)],
            primary_key="id",
        )
    )
    database.create_table(
        table_schema(
            "papers",
            [("id", DataType.INTEGER), ("conf_id", DataType.INTEGER),
             ("title", DataType.TEXT), ("year", DataType.INTEGER)],
            primary_key="id",
            foreign_keys=[ForeignKey("conf_id", "confs", "id")],
        )
    )
    database.insert("confs", [1, "SIGMOD"])
    database.insert("confs", [2, "KDD"])
    database.insert("confs", [3, "CHI"])
    rows = [
        (1, 1, "Usable databases", 2007),
        (2, 1, "Fast joins", 2012),
        (3, 2, "Graph mining", 2012),
        (4, 2, "Deep tables", 2015),
        (5, 1, "Query steering", 2013),
        (6, None, "Unpublished note", None),
    ]
    for row in rows:
        database.insert("papers", row)
    with SqliteDatabase(database) as engine:
        yield engine


def rows(db, sql):
    return db.execute(sql).rows


class TestProjection:
    def test_star(self, db):
        result = db.execute("SELECT * FROM confs")
        assert len(result.rows) == 3 and len(result.columns) == 2

    def test_qualified_star(self, db):
        result = db.execute("SELECT c.* FROM confs c, papers p")
        assert len(result.columns) == 2

    def test_expression_item(self, db):
        result = db.execute("SELECT year + 1 AS next FROM papers WHERE id = 1")
        assert result.rows == [(2008,)]
        assert result.columns == ("next",)

    def test_output_names(self, db):
        result = db.execute("SELECT title, COUNT(*) FROM papers GROUP BY title")
        assert result.columns == ("title", "COUNT(*)")

    def test_unknown_table(self, db):
        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            db.execute("SELECT * FROM missing")

    def test_duplicate_alias_rejected(self, db):
        with pytest.raises(sqlite3.OperationalError, match="ambiguous column"):
            db.execute("SELECT * FROM papers p, confs p")


class TestFilterJoin:
    def test_where(self, db):
        assert len(rows(db, "SELECT id FROM papers WHERE year > 2012")) == 2

    def test_where_null_dropped(self, db):
        assert len(rows(db, "SELECT id FROM papers WHERE year < 3000")) == 5

    def test_implicit_join(self, db):
        result = rows(
            db,
            "SELECT p.title, c.acronym FROM papers p, confs c "
            "WHERE p.conf_id = c.id AND c.acronym = 'SIGMOD'",
        )
        assert len(result) == 3

    def test_explicit_join(self, db):
        result = rows(
            db,
            "SELECT p.title FROM papers p JOIN confs c ON p.conf_id = c.id "
            "WHERE c.acronym = 'KDD'",
        )
        assert len(result) == 2

    def test_join_excludes_null_fk(self, db):
        result = rows(
            db, "SELECT p.id FROM papers p, confs c WHERE p.conf_id = c.id"
        )
        assert len(result) == 5

    def test_cross_join_without_condition(self, db):
        assert len(rows(db, "SELECT * FROM papers, confs")) == 18

    def test_self_join(self, db):
        result = rows(
            db,
            "SELECT a.id, b.id FROM papers a, papers b "
            "WHERE a.year = b.year AND a.id < b.id",
        )
        assert (2, 3) in result

    def test_like(self, db):
        assert len(rows(db, "SELECT id FROM papers WHERE title LIKE '%tables%'")) == 1

    def test_between(self, db):
        assert len(
            rows(db, "SELECT id FROM papers WHERE year BETWEEN 2012 AND 2013")
        ) == 3

    def test_in_list(self, db):
        assert len(rows(db, "SELECT id FROM papers WHERE year IN (2007, 2015)")) == 2

    def test_is_null(self, db):
        assert rows(db, "SELECT id FROM papers WHERE year IS NULL") == [(6,)]

    def test_triangle_join_order(self, db):
        result = rows(
            db,
            "SELECT DISTINCT c.acronym FROM confs c, papers p, papers q "
            "WHERE p.conf_id = c.id AND q.conf_id = c.id AND p.id != q.id",
        )
        assert sorted(r[0] for r in result) == ["KDD", "SIGMOD"]


class TestAggregation:
    def test_count_star_scalar(self, db):
        assert rows(db, "SELECT COUNT(*) FROM papers") == [(6,)]

    def test_count_column_ignores_null(self, db):
        assert rows(db, "SELECT COUNT(year) FROM papers") == [(5,)]

    def test_count_distinct(self, db):
        assert rows(db, "SELECT COUNT(DISTINCT year) FROM papers") == [(4,)]

    def test_group_by_with_first_row_rule(self, db):
        result = rows(
            db,
            "SELECT c.acronym, COUNT(*) AS n FROM confs c, papers p "
            "WHERE p.conf_id = c.id GROUP BY c.id ORDER BY n DESC",
        )
        assert result[0] == ("SIGMOD", 3)

    def test_group_by_select_star(self, db):
        result = db.execute(
            "SELECT c.*, COUNT(*) FROM confs c, papers p "
            "WHERE p.conf_id = c.id GROUP BY c.id"
        )
        assert len(result.columns) == 3

    def test_ent_list(self, db):
        result = rows(
            db,
            "SELECT c.acronym, ENT_LIST(p.title) FROM confs c, papers p "
            "WHERE p.conf_id = c.id AND c.id = 2 GROUP BY c.id",
        )
        assert result == [("KDD", ("Graph mining", "Deep tables"))]

    def test_having(self, db):
        result = rows(
            db,
            "SELECT c.acronym FROM confs c, papers p WHERE p.conf_id = c.id "
            "GROUP BY c.id HAVING COUNT(*) > 2",
        )
        assert result == [("SIGMOD",)]

    def test_sum_avg_min_max(self, db):
        result = rows(
            db,
            "SELECT SUM(year), AVG(year), MIN(year), MAX(year) FROM papers "
            "WHERE conf_id = 1",
        )
        assert result == [(6032, 6032 / 3, 2007, 2013)]

    def test_aggregate_arithmetic(self, db):
        assert rows(db, "SELECT COUNT(*) + 1 FROM papers") == [(7,)]

    def test_scalar_aggregation_on_empty(self, db):
        assert rows(db, "SELECT COUNT(*) FROM papers WHERE year = 1900") == [(0,)]

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(sqlite3.OperationalError, match="misuse of aggregate"):
            db.execute("SELECT id FROM papers WHERE COUNT(*) > 1")

    def test_order_by_aggregate(self, db):
        result = rows(
            db,
            "SELECT c.acronym FROM confs c, papers p WHERE p.conf_id = c.id "
            "GROUP BY c.id ORDER BY COUNT(*) ASC",
        )
        assert result == [("KDD",), ("SIGMOD",)]


class TestSubqueries:
    def test_exists_correlated(self, db):
        result = rows(
            db,
            "SELECT c.acronym FROM confs c WHERE EXISTS "
            "(SELECT 1 FROM papers p WHERE p.conf_id = c.id AND p.year > 2014)",
        )
        assert result == [("KDD",)]

    def test_not_exists(self, db):
        result = rows(
            db,
            "SELECT c.acronym FROM confs c WHERE NOT EXISTS "
            "(SELECT 1 FROM papers p WHERE p.conf_id = c.id)",
        )
        assert result == [("CHI",)]

    def test_in_subquery(self, db):
        result = rows(
            db,
            "SELECT acronym FROM confs WHERE id IN "
            "(SELECT conf_id FROM papers WHERE year = 2012)",
        )
        assert sorted(r[0] for r in result) == ["KDD", "SIGMOD"]

    def test_in_subquery_arity_checked(self, db):
        with pytest.raises(sqlite3.OperationalError, match="sub-select returns 2"):
            db.execute(
                "SELECT id FROM confs WHERE id IN (SELECT id, acronym FROM confs)"
            )


class TestOrderDistinctLimitUnion:
    def test_order_by_column(self, db):
        result = rows(db, "SELECT id FROM papers WHERE year IS NOT NULL ORDER BY year DESC")
        assert result[0] == (4,)

    def test_order_by_alias(self, db):
        result = rows(db, "SELECT year AS y FROM papers WHERE id < 3 ORDER BY y")
        assert result == [(2007,), (2012,)]

    def test_order_by_ordinal(self, db):
        result = rows(db, "SELECT id, year FROM papers WHERE id < 3 ORDER BY 2 DESC")
        assert result[0] == (2, 2012)

    def test_order_by_unprojected_column(self, db):
        result = rows(db, "SELECT title FROM papers WHERE conf_id = 1 ORDER BY year")
        assert result[0] == ("Usable databases",)

    def test_order_by_bad_ordinal(self, db):
        with pytest.raises(sqlite3.OperationalError, match="out of range"):
            db.execute("SELECT id FROM papers ORDER BY 9")

    def test_distinct(self, db):
        assert len(rows(db, "SELECT DISTINCT conf_id FROM papers")) == 3

    def test_limit_offset(self, db):
        result = rows(db, "SELECT id FROM papers ORDER BY id LIMIT 2 OFFSET 1")
        assert result == [(2,), (3,)]

    def test_union(self, db):
        result = rows(
            db,
            "SELECT acronym FROM confs WHERE id = 1 "
            "UNION SELECT acronym FROM confs WHERE id <= 2",
        )
        assert sorted(r[0] for r in result) == ["KDD", "SIGMOD"]

    def test_union_all_keeps_duplicates(self, db):
        result = rows(
            db,
            "SELECT acronym FROM confs WHERE id = 1 "
            "UNION ALL SELECT acronym FROM confs WHERE id = 1",
        )
        assert result == [("SIGMOD",), ("SIGMOD",)]

    def test_union_arity_mismatch(self, db):
        with pytest.raises(sqlite3.OperationalError, match="same number of result columns"):
            db.execute("SELECT id FROM confs UNION SELECT id, acronym FROM confs")
