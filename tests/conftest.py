"""Shared fixtures: generated databases, their TGDB translations, and
each database loaded into SQLite.

Session-scoped because generation, translation and loading are
deterministic and the tests only read from them. Tests that need to mutate
state build their own objects.
"""

from __future__ import annotations

import pytest

from repro.datasets.academic import (
    AcademicConfig,
    default_categorical_attributes,
    default_label_overrides,
    generate_academic,
)
from repro.datasets.movies import (
    MoviesConfig,
    generate_movies,
    movies_categorical_attributes,
    movies_label_overrides,
)
from repro.datasets.toy import generate_toy
from repro.relational import SqliteDatabase
from repro.translate import translate_database


@pytest.fixture(scope="session")
def academic_db():
    db, _report = generate_academic(AcademicConfig(papers=300, seed=7))
    return db


@pytest.fixture(scope="session")
def academic(academic_db):
    """The translated academic TGDB (schema, graph, mapping, database)."""
    return translate_database(
        academic_db,
        categorical_attributes=default_categorical_attributes(),
        label_overrides=default_label_overrides(),
    )


@pytest.fixture(scope="session")
def toy_db():
    return generate_toy()


@pytest.fixture(scope="session")
def toy(toy_db):
    return translate_database(
        toy_db,
        categorical_attributes={"Institutions": ["country"],
                                "Papers": ["year"]},
        label_overrides=default_label_overrides(),
    )


@pytest.fixture(scope="session")
def movies_db():
    return generate_movies(MoviesConfig(movies=80, people=60, seed=11))


@pytest.fixture(scope="session")
def movies(movies_db):
    return translate_database(
        movies_db,
        categorical_attributes=movies_categorical_attributes(),
        label_overrides=movies_label_overrides(),
    )


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
