"""A tiny deterministic database replicating Figure 8's walkthrough.

Figure 8 traces the execution of the Korea/SIGMOD query over a handful of
instances: conference 1 is SIGMOD; papers 1, 4, 5, 8 are recent SIGMOD
papers; Bob (author 1), Mark (4) and Chad (11) work at Korean institutions
(3 and 8); the final ETable lists Bob with papers {1, 4, 5, 8}, Mark with
{4, 8} and Chad with {4}. The ids below match the figure so the bench can
print the same intermediate graph relation and final table.
"""

from __future__ import annotations

from repro.relational.database import Database
from repro.datasets.academic import academic_schema, default_label_overrides
from repro.translate import TgdbTranslation, translate_database

# (id, acronym, title)
_CONFERENCES = [
    (1, "SIGMOD", "ACM SIGMOD Conference"),
    (2, "KDD", "ACM SIGKDD Conference"),
]

# (id, name, country) — institutions 3 and 8 are the Korean ones.
_INSTITUTIONS = [
    (1, "University of Michigan", "USA"),
    (2, "University of Washington", "USA"),
    (3, "KAIST", "South Korea"),
    (4, "Stanford University", "USA"),
    (7, "ETH Zurich", "Switzerland"),
    (8, "Seoul National University", "South Korea"),
    (9, "Tsinghua University", "China"),
    (14, "University of Tokyo", "Japan"),
    (20, "INRIA", "France"),
    (21, "TU Delft", "Netherlands"),
]

# (id, name, institution_id) — ids follow the figure's Autho/Insti table.
_AUTHORS = [
    (1, "Bob", 3),
    (2, "Ann", 1),
    (3, "Joe", 3),
    (4, "Mark", 3),
    (5, "Eve", 7),
    (6, "Sam", 7),
    (7, "Ada", 2),
    (11, "Chad", 8),
]

# (id, conference_id, title, year, page_start, page_end)
# Papers 1, 4, 5, 8 are the SIGMOD > 2005 set of the figure.
_PAPERS = [
    (1, 1, "Query steering for data exploration", 2006, 100, 111),
    (3, 1, "Early visions of usable databases", 2003, 13, 24),
    (4, 1, "Enriched tables for entity browsing", 2009, 200, 212),
    (5, 1, "Direct manipulation of join results", 2012, 300, 311),
    (7, 2, "Mining co-authorship cliques", 2011, 40, 52),
    (8, 1, "Schema-aware result presentation", 2014, 400, 413),
    (11, 2, "Graph views of relational data", 2013, 77, 90),
]

# (paper_id, author_id, author_position) — matches the figure's pairs.
_PAPER_AUTHORS = [
    (1, 1, 1),
    (1, 2, 2),
    (3, 2, 1),
    (4, 1, 1),
    (4, 4, 2),
    (4, 11, 3),
    (5, 1, 1),
    (7, 5, 1),
    (7, 6, 2),
    (8, 1, 1),
    (8, 4, 2),
    (11, 7, 1),
]

_PAPER_KEYWORDS = [
    (1, "data exploration"),
    (1, "user interfaces"),
    (3, "usability"),
    (4, "browsing"),
    (4, "user interfaces"),
    (5, "direct manipulation"),
    (7, "graph mining"),
    (8, "design"),
    (11, "graph databases"),
]

_PAPER_REFERENCES = [
    (4, 1),
    (4, 3),
    (5, 1),
    (5, 4),
    (8, 4),
    (8, 5),
    (11, 7),
]


def generate_toy() -> Database:
    """Build the Figure 8 database (deterministic, no randomness)."""
    db = Database("toy")
    for schema in academic_schema():
        db.create_table(schema)
    for row in _CONFERENCES:
        db.insert("Conferences", row)
    for row in _INSTITUTIONS:
        db.insert("Institutions", row)
    for row in _AUTHORS:
        db.insert("Authors", row)
    for row in _PAPERS:
        db.insert("Papers", row)
    for row in _PAPER_AUTHORS:
        db.insert("Paper_Authors", row)
    for row in _PAPER_KEYWORDS:
        db.insert("Paper_Keywords", row)
    for row in _PAPER_REFERENCES:
        db.insert("Paper_References", row)
    return db


def toy_tgdb() -> TgdbTranslation:
    """The Figure 8 database, translated with the academic corpus's
    categorical attributes and labels."""
    return translate_database(
        generate_toy(),
        categorical_attributes={"Institutions": ["country"],
                                "Papers": ["year"]},
        label_overrides=default_label_overrides(),
    )


# The expected final ETable of Figure 8: author name -> set of paper ids.
FIGURE8_EXPECTED = {
    "Bob": {1, 4, 5, 8},
    "Mark": {4, 8},
    "Chad": {4},
}
