"""Shared fixtures: generated databases, their TGDB translations, and
each database loaded into SQLite.

Session-scoped because generation, translation and loading are
deterministic and the tests only read from them. Tests that need to mutate
state build their own objects.
"""

from __future__ import annotations

import pytest

from repro.datasets.academic import AcademicConfig, academic_tgdb
from repro.datasets.movies import MoviesConfig, movies_tgdb
from repro.datasets.toy import toy_tgdb
from repro.relational import SqliteDatabase


@pytest.fixture(scope="session")
def academic():
    """The translated academic TGDB (schema, graph, mapping, database)."""
    return academic_tgdb(AcademicConfig(papers=300, seed=7))


@pytest.fixture(scope="session")
def academic_db(academic):
    return academic.database


@pytest.fixture(scope="session")
def toy():
    return toy_tgdb()


@pytest.fixture(scope="session")
def toy_db(toy):
    return toy.database


@pytest.fixture(scope="session")
def movies():
    return movies_tgdb(MoviesConfig(movies=80, people=60, seed=11))


@pytest.fixture(scope="session")
def movies_db(movies):
    return movies.database


@pytest.fixture(scope="session")
def academic_sql(academic_db):
    with SqliteDatabase(academic_db) as engine:
        yield engine


@pytest.fixture(scope="session")
def toy_sql(toy_db):
    with SqliteDatabase(toy_db) as engine:
        yield engine


@pytest.fixture(scope="session")
def movies_sql(movies_db):
    with SqliteDatabase(movies_db) as engine:
        yield engine
