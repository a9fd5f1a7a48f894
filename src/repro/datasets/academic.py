"""Synthetic DBLP/ACM-style academic publication database (Figure 3).

The paper evaluated ETable on ~38,000 papers from 19 conferences in
databases, data mining, and HCI (since 2000), with the 7-relation schema of
Figure 3. That crawl is not redistributable, so this generator produces a
seeded synthetic corpus with the same schema, the same scale knobs, skewed
authorship/citation distributions (preferential attachment), and *anchor
rows* that guarantee every user-study task of Table 2 has a well-defined
answer (e.g. the paper titled 'Making database systems usable' exists, is a
2007 SIGMOD paper, and carries 'user interfaces' among its keywords).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Any

from repro.relational.database import Database
from repro.relational.datatypes import DataType
from repro.relational.schema import ForeignKey, table_schema
from repro.datasets import names
from repro.translate import TgdbTranslation, translate_database


@dataclass
class AcademicConfig:
    """Knobs for the generator. Defaults are test-sized; use
    :func:`paper_scale_config` for the paper's 38k-paper corpus."""

    papers: int = 1200
    authors: int | None = None          # default: ~papers // 2
    start_year: int = 2000
    end_year: int = 2015
    seed: int = 7
    max_authors_per_paper: int = 8
    min_keywords: int = 3
    max_keywords: int = 8
    max_references: int = 15

    def resolved_authors(self) -> int:
        if self.authors is not None:
            return self.authors
        return max(60, self.papers // 2)


def paper_scale_config(seed: int = 7) -> AcademicConfig:
    """The evaluation-scale corpus: ~38,000 papers, 19 conferences."""
    return AcademicConfig(papers=38_000, seed=seed)


def academic_schema() -> list:
    """The 7 relations / 7 foreign keys of Figure 3."""
    return [
        table_schema(
            "Conferences",
            [("id", DataType.INTEGER), ("acronym", DataType.TEXT),
             ("title", DataType.TEXT)],
            primary_key="id",
        ),
        table_schema(
            "Institutions",
            [("id", DataType.INTEGER), ("name", DataType.TEXT),
             ("country", DataType.TEXT)],
            primary_key="id",
        ),
        table_schema(
            "Authors",
            [("id", DataType.INTEGER), ("name", DataType.TEXT),
             ("institution_id", DataType.INTEGER)],
            primary_key="id",
            foreign_keys=[ForeignKey("institution_id", "Institutions", "id")],
        ),
        table_schema(
            "Papers",
            [("id", DataType.INTEGER), ("conference_id", DataType.INTEGER),
             ("title", DataType.TEXT), ("year", DataType.INTEGER),
             ("page_start", DataType.INTEGER), ("page_end", DataType.INTEGER)],
            primary_key="id",
            foreign_keys=[ForeignKey("conference_id", "Conferences", "id")],
        ),
        table_schema(
            "Paper_Authors",
            [("paper_id", DataType.INTEGER), ("author_id", DataType.INTEGER),
             ("author_position", DataType.INTEGER)],
            primary_key=["paper_id", "author_id"],
            foreign_keys=[
                ForeignKey("paper_id", "Papers", "id"),
                ForeignKey("author_id", "Authors", "id"),
            ],
        ),
        table_schema(
            "Paper_Keywords",
            [("paper_id", DataType.INTEGER), ("keyword", DataType.TEXT)],
            primary_key=["paper_id", "keyword"],
            foreign_keys=[ForeignKey("paper_id", "Papers", "id")],
        ),
        table_schema(
            "Paper_References",
            [("paper_id", DataType.INTEGER), ("ref_paper_id", DataType.INTEGER)],
            primary_key=["paper_id", "ref_paper_id"],
            foreign_keys=[
                ForeignKey("paper_id", "Papers", "id"),
                ForeignKey("ref_paper_id", "Papers", "id"),
            ],
        ),
    ]


def default_categorical_attributes() -> dict[str, list[str]]:
    """The categorical attributes shown in Figure 4: Papers.year and
    Institutions.country."""
    return {"Papers": ["year"], "Institutions": ["country"]}


def default_label_overrides() -> dict[str, str]:
    """Figure 1 labels conferences by acronym, not by full title."""
    return {"Conferences": "acronym", "Papers": "title",
            "Authors": "name", "Institutions": "name"}


# ----------------------------------------------------------------------
# Anchor entities used by the study tasks (Table 2, both matched sets)
# ----------------------------------------------------------------------
ANCHOR_AUTHORS: list[tuple[str, str]] = [
    # (author name, institution name)
    ("H. V. Jagadish", "University of Michigan"),
    ("Samuel Madden", "Massachusetts Institute of Technology"),
    ("Jeffrey Heer", "University of Washington"),
    ("Arnab Nandi", "University of Michigan"),
    ("Divesh Srivastava", "AT&T Labs"),
    ("Christos Faloutsos", "Carnegie Mellon University"),
    ("Jure Leskovec", "Stanford University"),
    ("Tom Mitchell", "Carnegie Mellon University"),
    ("Yehuda Koren", "Yahoo Research"),
    ("Minsuk Kahng", "Georgia Institute of Technology"),
    ("Scott Hudson", "Carnegie Mellon University"),
    ("Michael Bernstein", "Stanford University"),
]

_ANCHOR_PAPERS: list[dict[str, Any]] = [
    {
        "title": "Making database systems usable",
        "conference": "SIGMOD",
        "year": 2007,
        "page_start": 13,
        "page_end": 24,
        "authors": ["H. V. Jagadish", "Arnab Nandi"],
        "extra_authors": 5,
        "keywords": ["user interfaces", "human factors", "design", "usability"],
    },
    {
        "title": "Collaborative filtering with temporal dynamics",
        "conference": "KDD",
        "year": 2009,
        "page_start": 447,
        "page_end": 456,
        "authors": ["Yehuda Koren"],
        "extra_authors": 0,
        "keywords": ["collaborative filtering", "recommendation",
                     "temporal databases", "ranking", "machine learning"],
    },
    {
        "title": "Spreadsheet as a relational database engine",
        "conference": "SIGMOD",
        "year": 2010,
        "page_start": 195,
        "page_end": 206,
        "authors": [],
        "extra_authors": 1,
        "keywords": ["spreadsheets", "relational databases", "query languages",
                     "tabular data"],
    },
    {
        "title": "Interactive data mining with evolving queries",
        "conference": "KDD",
        "year": 2013,
        "page_start": 1009,
        "page_end": 1012,
        "authors": ["Christos Faloutsos"],
        "extra_authors": 3,
        "keywords": ["data mining", "user interfaces", "exploratory analysis",
                     "visual analytics", "high-dimensional data"],
    },
    # Samuel Madden's recent papers (Task 3, set A: "2013 or after").
    {
        "title": "Speedy transactions for multicore databases",
        "conference": "SIGMOD",
        "year": 2013,
        "page_start": 18,
        "page_end": 32,
        "authors": ["Samuel Madden"],
        "extra_authors": 3,
        "keywords": ["transactions", "main memory databases", "performance"],
    },
    {
        "title": "The analytical bottleneck in interactive exploration",
        "conference": "VLDB",
        "year": 2014,
        "page_start": 1142,
        "page_end": 1153,
        "authors": ["Samuel Madden"],
        "extra_authors": 2,
        "keywords": ["data exploration", "interactive visualization",
                     "performance"],
    },
    {
        "title": "Scalable sensing pipelines for urban data",
        "conference": "SIGMOD",
        "year": 2010,
        "page_start": 807,
        "page_end": 818,
        "authors": ["Samuel Madden"],
        "extra_authors": 2,
        "keywords": ["sensor networks", "stream processing", "sampling"],
    },
    # Jeffrey Heer's recent papers (Task 3, set B: "2012 or after").
    {
        "title": "Declarative interaction grammars for data graphics",
        "conference": "UIST",
        "year": 2014,
        "page_start": 669,
        "page_end": 678,
        "authors": ["Jeffrey Heer"],
        "extra_authors": 1,
        "keywords": ["data visualization", "user interfaces",
                     "interactive visualization", "design"],
    },
    {
        "title": "Perceptual kernels for visualization design",
        "conference": "INFOVIS",
        "year": 2014,
        "page_start": 1933,
        "page_end": 1942,
        "authors": ["Jeffrey Heer"],
        "extra_authors": 1,
        "keywords": ["visualization", "design", "experimentation"],
    },
    {
        "title": "Profiling habits in exploratory visual sessions",
        "conference": "CHI",
        "year": 2009,
        "page_start": 1217,
        "page_end": 1226,
        "authors": ["Jeffrey Heer"],
        "extra_authors": 2,
        "keywords": ["user studies", "exploratory analysis", "visualization"],
    },
    # Carnegie Mellon + KDD anchors (Task 4, set A).
    {
        "title": "Fast pattern mining for evolving graphs",
        "conference": "KDD",
        "year": 2011,
        "page_start": 433,
        "page_end": 441,
        "authors": ["Christos Faloutsos"],
        "extra_authors": 2,
        "keywords": ["graph mining", "frequent patterns", "scalability"],
    },
    {
        "title": "Never-ending learners for web-scale extraction",
        "conference": "KDD",
        "year": 2012,
        "page_start": 528,
        "page_end": 536,
        "authors": ["Tom Mitchell"],
        "extra_authors": 3,
        "keywords": ["machine learning", "text mining", "active learning"],
    },
    # Stanford + CHI anchors (Task 4, set B).
    {
        "title": "Crowd-powered interfaces for complex work",
        "conference": "CHI",
        "year": 2012,
        "page_start": 1011,
        "page_end": 1020,
        "authors": ["Michael Bernstein"],
        "extra_authors": 2,
        "keywords": ["crowdsourcing", "user interfaces", "design"],
    },
]


@dataclass
class GenerationReport:
    """Row counts and anchor ids recorded while generating."""

    counts: dict[str, int] = field(default_factory=dict)
    anchor_paper_ids: dict[str, int] = field(default_factory=dict)
    anchor_author_ids: dict[str, int] = field(default_factory=dict)


def generate_academic(
    config: AcademicConfig | None = None,
) -> tuple[Database, GenerationReport]:
    """Generate the corpus; deterministic for a fixed config."""
    config = config or AcademicConfig()
    rng = random.Random(config.seed)
    db = Database("academic")
    for schema in academic_schema():
        db.create_table(schema)
    report = GenerationReport()

    conference_ids = _load_conferences(db)
    institution_ids = _load_institutions(db)
    author_rows, author_ids_by_name = _make_authors(
        config, rng, institution_ids, report
    )
    _fix_country_majorities(rng, author_rows, institution_ids)
    db.load_unchecked("Authors", author_rows)
    report.counts["Authors"] = len(author_rows)

    paper_rows, paper_authors, paper_keywords, paper_references = _make_papers(
        config, rng, conference_ids, author_rows, author_ids_by_name, report
    )
    db.load_unchecked("Papers", paper_rows)
    db.load_unchecked("Paper_Authors", paper_authors)
    db.load_unchecked("Paper_Keywords", paper_keywords)
    db.load_unchecked("Paper_References", paper_references)
    report.counts["Papers"] = len(paper_rows)
    report.counts["Paper_Authors"] = len(paper_authors)
    report.counts["Paper_Keywords"] = len(paper_keywords)
    report.counts["Paper_References"] = len(paper_references)
    report.counts["Conferences"] = len(conference_ids)
    report.counts["Institutions"] = len(institution_ids)

    problems = db.validate_integrity()
    if problems:  # pragma: no cover - generator invariant
        raise AssertionError(f"generator produced inconsistent data: {problems[:3]}")
    return db, report


def academic_tgdb(config: AcademicConfig | None = None) -> TgdbTranslation:
    """The generated corpus, translated with Figure 4's categorical
    attributes and Figure 1's labels."""
    db, _report = generate_academic(config)
    return translate_database(
        db,
        categorical_attributes=default_categorical_attributes(),
        label_overrides=default_label_overrides(),
    )


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _load_conferences(db: Database) -> dict[str, int]:
    ids: dict[str, int] = {}
    for index, (acronym, title) in enumerate(names.CONFERENCES, start=1):
        db.insert("Conferences", {"id": index, "acronym": acronym, "title": title})
        ids[acronym] = index
    return ids


def _load_institutions(db: Database) -> dict[str, int]:
    ids: dict[str, int] = {}
    for index, (name, country) in enumerate(names.INSTITUTIONS, start=1):
        db.insert(
            "Institutions", {"id": index, "name": name, "country": country}
        )
        ids[name] = index
    return ids


def _make_authors(
    config: AcademicConfig,
    rng: random.Random,
    institution_ids: dict[str, int],
    report: GenerationReport,
) -> tuple[list[dict[str, Any]], dict[str, int]]:
    rows: list[dict[str, Any]] = []
    by_name: dict[str, int] = {}
    next_id = 1
    for name, institution in ANCHOR_AUTHORS:
        rows.append(
            {"id": next_id, "name": name,
             "institution_id": institution_ids[institution]}
        )
        by_name[name] = next_id
        report.anchor_author_ids[name] = next_id
        next_id += 1

    institutions = list(institution_ids.values())
    # Skewed institution sizes: a few large groups, a long tail.
    weights = [1.0 / (rank + 1) ** 0.6 for rank in range(len(institutions))]
    cumulative = _cumulative(weights)
    total = config.resolved_authors()
    used_names = set(by_name)
    while next_id <= total:
        name = _fresh_person_name(rng, used_names)
        used_names.add(name)
        institution = institutions[_sample(cumulative, rng)]
        rows.append({"id": next_id, "name": name, "institution_id": institution})
        by_name[name] = next_id
        next_id += 1
    return rows, by_name


def _fix_country_majorities(
    rng: random.Random,
    author_rows: list[dict[str, Any]],
    institution_ids: dict[str, int],
) -> None:
    """Make Task 5's answers unique: KAIST must strictly lead South Korea and
    Technical University of Munich must strictly lead Germany, by reassigning
    a few tail authors if needed."""
    for country_leader in ("KAIST", "Technical University of Munich"):
        leader_id = institution_ids[country_leader]
        country = {
            "KAIST": "South Korea",
            "Technical University of Munich": "Germany",
        }[country_leader]
        peer_ids = {
            institution_ids[name]
            for name, ctry in names.INSTITUTIONS
            if ctry == country
        }
        counts = {institution: 0 for institution in peer_ids}
        for row in author_rows:
            if row["institution_id"] in counts:
                counts[row["institution_id"]] += 1
        rival_max = max(
            (count for institution, count in counts.items()
             if institution != leader_id),
            default=0,
        )
        deficit = rival_max + 1 - counts[leader_id]
        if deficit <= 0:
            continue
        # Reassign authors from outside the country into the leader.
        candidates = [
            row for row in author_rows[len(ANCHOR_AUTHORS):]
            if row["institution_id"] not in peer_ids
        ]
        for row in rng.sample(candidates, deficit):
            row["institution_id"] = leader_id


def _make_papers(
    config: AcademicConfig,
    rng: random.Random,
    conference_ids: dict[str, int],
    author_rows: list[dict[str, Any]],
    author_ids_by_name: dict[str, int],
    report: GenerationReport,
) -> tuple[list[dict], list[dict], list[dict], list[dict]]:
    total = max(config.papers, len(_ANCHOR_PAPERS))
    years = list(range(config.start_year, config.end_year + 1))
    conference_list = list(conference_ids.values())
    conference_weights = _cumulative(
        [1.0 / (rank + 1) ** 0.3 for rank in range(len(conference_list))]
    )
    # Zipf popularity over a seed-dependent permutation of the pool, so no
    # semantic block of the keyword list (e.g. the 'user ...' keywords) is
    # systematically the most frequent.
    keyword_order = list(range(len(names.KEYWORDS)))
    rng.shuffle(keyword_order)
    keyword_weights = _cumulative(
        [1.0 / (rank + 1) ** 0.8 for rank in range(len(names.KEYWORDS))]
    )

    # Draft all papers (title, conference, year) before id assignment so ids
    # can be handed out in year order (citations then point backwards).
    drafts: list[dict[str, Any]] = []
    used_titles: set[str] = set()
    for anchor in _ANCHOR_PAPERS:
        drafts.append(
            {
                "title": anchor["title"],
                "conference_id": conference_ids[anchor["conference"]],
                "year": anchor["year"],
                "page_start": anchor["page_start"],
                "page_end": anchor["page_end"],
                "anchor": anchor,
            }
        )
        used_titles.add(anchor["title"].lower())
    while len(drafts) < total:
        title = _fresh_title(rng, used_titles)
        used_titles.add(title.lower())
        year = years[_year_index(rng, len(years))]
        page_start = rng.randint(1, 1800)
        drafts.append(
            {
                "title": title,
                "conference_id": conference_list[
                    _sample(conference_weights, rng)
                ],
                "year": year,
                "page_start": page_start,
                "page_end": page_start + rng.randint(3, 14),
                "anchor": None,
            }
        )
    drafts.sort(key=lambda d: (d["year"], d["title"]))

    paper_rows: list[dict[str, Any]] = []
    paper_authors: list[dict[str, Any]] = []
    paper_keywords: list[dict[str, Any]] = []
    paper_references: list[dict[str, Any]] = []

    # Preferential-attachment pools: each assignment feeds back into the
    # pool, yielding the long-tailed productivity / citation distributions
    # real bibliographies show.
    author_pool: list[int] = [row["id"] for row in author_rows]
    citation_pool: list[int] = []
    generic_authors = [
        row["id"] for row in author_rows[len(ANCHOR_AUTHORS):]
    ] or [row["id"] for row in author_rows]

    for paper_id, draft in enumerate(drafts, start=1):
        paper_rows.append(
            {
                "id": paper_id,
                "conference_id": draft["conference_id"],
                "title": draft["title"],
                "year": draft["year"],
                "page_start": draft["page_start"],
                "page_end": draft["page_end"],
            }
        )
        anchor = draft["anchor"]
        if anchor is not None:
            report.anchor_paper_ids[anchor["title"]] = paper_id
            team = [author_ids_by_name[name] for name in anchor["authors"]]
            while len(team) < len(anchor["authors"]) + anchor["extra_authors"]:
                candidate = rng.choice(generic_authors)
                if candidate not in team:
                    team.append(candidate)
            keywords = list(anchor["keywords"])
        else:
            team_size = min(
                1 + _geometric(rng, 0.45), config.max_authors_per_paper
            )
            team = []
            while len(team) < team_size:
                candidate = rng.choice(author_pool)
                if candidate not in team:
                    team.append(candidate)
            keyword_count = rng.randint(config.min_keywords, config.max_keywords)
            keywords = []
            while len(keywords) < keyword_count:
                keyword = names.KEYWORDS[
                    keyword_order[_sample(keyword_weights, rng)]
                ]
                if keyword not in keywords:
                    keywords.append(keyword)
        for position, author_id in enumerate(team, start=1):
            paper_authors.append(
                {
                    "paper_id": paper_id,
                    "author_id": author_id,
                    "author_position": position,
                }
            )
            author_pool.append(author_id)
        for keyword in keywords:
            paper_keywords.append({"paper_id": paper_id, "keyword": keyword})

        if citation_pool:
            reference_count = min(
                _geometric(rng, 0.18), config.max_references, paper_id - 1
            )
            cited: set[int] = set()
            attempts = 0
            while len(cited) < reference_count and attempts < reference_count * 8:
                attempts += 1
                candidate = rng.choice(citation_pool)
                if candidate != paper_id:
                    cited.add(candidate)
            for ref in sorted(cited):
                paper_references.append(
                    {"paper_id": paper_id, "ref_paper_id": ref}
                )
                citation_pool.append(ref)
        citation_pool.append(paper_id)

    return paper_rows, paper_authors, paper_keywords, paper_references


def _fresh_person_name(rng: random.Random, used: set[str]) -> str:
    for _ in range(200):
        name = f"{rng.choice(names.FIRST_NAMES)} {rng.choice(names.LAST_NAMES)}"
        if name not in used:
            return name
    # Pool exhausted: disambiguate with a middle initial.
    while True:
        name = (
            f"{rng.choice(names.FIRST_NAMES)} "
            f"{chr(rng.randint(65, 90))}. {rng.choice(names.LAST_NAMES)}"
        )
        if name not in used:
            return name


def _fresh_title(rng: random.Random, used: set[str]) -> str:
    while True:
        pattern = rng.choice(names.TITLE_PATTERNS)
        title = pattern.format(
            A=rng.choice(names.TITLE_TOPICS),
            B=rng.choice(names.TITLE_CONTEXTS),
            C=rng.choice(names.TITLE_FLAVORS),
        )
        title = title[0].upper() + title[1:]
        if title.lower() not in used:
            return title


def _year_index(rng: random.Random, count: int) -> int:
    """Later years are denser (publication growth), mildly."""
    draw = rng.random() ** 0.7
    return min(int(draw * count), count - 1)


def _geometric(rng: random.Random, p: float) -> int:
    """Number of failures before first success; cheap skewed counts."""
    count = 0
    while rng.random() > p and count < 60:
        count += 1
    return count


def _cumulative(weights: list[float]) -> list[float]:
    out: list[float] = []
    total = 0.0
    for weight in weights:
        total += weight
        out.append(total)
    return out


def _sample(cumulative: list[float], rng: random.Random) -> int:
    draw = rng.random() * cumulative[-1]
    return bisect.bisect_left(cumulative, draw)
