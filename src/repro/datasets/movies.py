"""A second domain: a movie database.

ETable's translation procedure is schema-agnostic; this dataset exercises it
on a different mini-world (movies, people, studios, genres) with the same
structural ingredients as Figure 3 — FK one-to-many links (studio,
director), a many-to-many relationship with an edge attribute (cast with
billing position), a multivalued attribute (genres), and categorical
attributes (decade, country) — so the examples and tests can show the
pipeline working beyond the paper's academic corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.relational.database import Database
from repro.relational.datatypes import DataType
from repro.relational.schema import ForeignKey, table_schema
from repro.translate import TgdbTranslation, translate_database

_STUDIOS = [
    ("Pinnacle Pictures", "USA"),
    ("Aurora Films", "USA"),
    ("Riverlight Studio", "UK"),
    ("Meridian Cinema", "France"),
    ("Hanok Entertainment", "South Korea"),
    ("Sakura Screenworks", "Japan"),
    ("NordFilm", "Sweden"),
    ("Cine del Sol", "Spain"),
]

_GENRES = [
    "drama", "comedy", "thriller", "science fiction", "documentary",
    "animation", "romance", "horror", "adventure", "mystery", "western",
    "musical",
]

_FIRST = ["Avery", "Blake", "Casey", "Dana", "Ellis", "Frankie", "Gray",
          "Harper", "Indie", "Jules", "Kendall", "Logan", "Marlowe", "Noor",
          "Oakley", "Parker", "Quinn", "Reese", "Sage", "Tatum"]
_LAST = ["Ashford", "Bellamy", "Calloway", "Drummond", "Ellington",
         "Fairbanks", "Grantham", "Holloway", "Irving", "Jennings",
         "Kingsley", "Lockwood", "Merriweather", "Northcott", "Osborne",
         "Pemberton", "Quimby", "Ravenscroft", "Sinclair", "Thornbury"]

_TITLE_A = ["Midnight", "Silent", "Golden", "Broken", "Electric", "Paper",
            "Winter", "Crimson", "Hollow", "Violet", "Last", "First"]
_TITLE_B = ["Harbor", "Orchard", "Signal", "Parade", "Lantern", "Meridian",
            "Compass", "Garden", "Station", "Mirror", "Archive", "Voyage"]
_TITLE_C = ["of Glass", "in Winter", "at Dawn", "of Echoes", "in Exile",
            "of the North", "under Neon", "beyond the River", "", "", "", ""]


@dataclass
class MoviesConfig:
    movies: int = 160
    people: int = 120
    start_year: int = 1972
    end_year: int = 2015
    seed: int = 11


def movies_schema() -> list:
    return [
        table_schema(
            "Studios",
            [("id", DataType.INTEGER), ("name", DataType.TEXT),
             ("country", DataType.TEXT)],
            primary_key="id",
        ),
        table_schema(
            "People",
            [("id", DataType.INTEGER), ("name", DataType.TEXT)],
            primary_key="id",
        ),
        table_schema(
            "Movies",
            [("id", DataType.INTEGER), ("title", DataType.TEXT),
             ("year", DataType.INTEGER), ("decade", DataType.TEXT),
             ("studio_id", DataType.INTEGER),
             ("director_id", DataType.INTEGER)],
            primary_key="id",
            foreign_keys=[
                ForeignKey("studio_id", "Studios", "id"),
                ForeignKey("director_id", "People", "id"),
            ],
        ),
        table_schema(
            "Movie_Cast",
            [("movie_id", DataType.INTEGER), ("person_id", DataType.INTEGER),
             ("billing", DataType.INTEGER)],
            primary_key=["movie_id", "person_id"],
            foreign_keys=[
                ForeignKey("movie_id", "Movies", "id"),
                ForeignKey("person_id", "People", "id"),
            ],
        ),
        table_schema(
            "Movie_Genres",
            [("movie_id", DataType.INTEGER), ("genre", DataType.TEXT)],
            primary_key=["movie_id", "genre"],
            foreign_keys=[ForeignKey("movie_id", "Movies", "id")],
        ),
    ]


def generate_movies(config: MoviesConfig | None = None) -> Database:
    """Generate the movie database; deterministic for a fixed config."""
    config = config or MoviesConfig()
    rng = random.Random(config.seed)
    db = Database("movies")
    for schema in movies_schema():
        db.create_table(schema)

    for index, (name, country) in enumerate(_STUDIOS, start=1):
        db.insert("Studios", {"id": index, "name": name, "country": country})

    used_people: set[str] = set()
    for person_id in range(1, config.people + 1):
        while True:
            name = f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
            if name not in used_people:
                used_people.add(name)
                break
        db.insert("People", {"id": person_id, "name": name})

    used_titles: set[str] = set()
    for movie_id in range(1, config.movies + 1):
        while True:
            title = (
                f"{rng.choice(_TITLE_A)} {rng.choice(_TITLE_B)} "
                f"{rng.choice(_TITLE_C)}"
            ).strip()
            if title not in used_titles:
                used_titles.add(title)
                break
        year = rng.randint(config.start_year, config.end_year)
        decade = f"{(year // 10) * 10}s"
        db.insert(
            "Movies",
            {
                "id": movie_id,
                "title": title,
                "year": year,
                "decade": decade,
                "studio_id": rng.randint(1, len(_STUDIOS)),
                "director_id": rng.randint(1, config.people),
            },
        )
        cast_size = rng.randint(2, 6)
        cast = rng.sample(range(1, config.people + 1), cast_size)
        for billing, person_id in enumerate(cast, start=1):
            db.insert(
                "Movie_Cast",
                {"movie_id": movie_id, "person_id": person_id,
                 "billing": billing},
            )
        for genre in rng.sample(_GENRES, rng.randint(1, 3)):
            db.insert("Movie_Genres", {"movie_id": movie_id, "genre": genre})
    return db


def movies_tgdb(config: MoviesConfig | None = None) -> TgdbTranslation:
    """The generated movie database, translated with decade and studio
    country as categorical node types."""
    return translate_database(
        generate_movies(config),
        categorical_attributes={"Movies": ["decade"], "Studios": ["country"]},
        label_overrides={"Movies": "title", "People": "name",
                         "Studios": "name"},
    )
