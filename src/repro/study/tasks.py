"""The user-study tasks (Table 2) in both matched sets.

Each task carries everything both simulated conditions need:

* a ground-truth SQL query (run on the SQLite engine);
* an ETable *solution script* — the action sequence a trained participant
  performs, which is executed against a real session and must produce the
  ground-truth answer (this is how the reproduction proves the tasks are
  actually solvable in ETable);
* the flat SQL a query-builder participant eventually writes, plus the
  feature counts (#relations, #joins, GROUP BY…) that drive the error and
  timing models.

Set A is Table 2 verbatim; set B is the matched set "differing only in their
specific values used for parameters" (Section 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import TaskDefinitionError
from repro.relational.sqlite import SqliteDatabase
from repro.tgm.conditions import AttributeCompare, AttributeLike
from repro.core.session import EtableSession


@dataclass(frozen=True)
class UiStep:
    """One interface-level step of a solution, priced by the KLM model."""

    kind: str            # open | filter | pivot | see_all | sort | read
    typed_chars: int = 0
    rows_to_read: int = 1


@dataclass
class TaskSpec:
    task_id: int
    task_set: str
    description: str
    category: str        # Attribute | Filter | Aggregate
    relations: int       # the "#Relations" column of Table 2
    ground_truth_sql: str
    flat_sql: str
    has_group_by: bool
    join_count: int
    predicate_count: int
    typed_chars: int     # characters a SQL user must type for literals
    etable_script: Callable[[EtableSession], tuple[frozenset, list[UiStep]]]
    # Superlative aggregates ("which X has the largest ...") need a
    # max-over-count, the hardest SQL concept in the study (Task 5).
    superlative: bool = False

    def ground_truth(self, engine: SqliteDatabase) -> frozenset:
        result = engine.execute(self.ground_truth_sql)
        answer = frozenset(row[0] for row in result.rows)
        if not answer:
            raise TaskDefinitionError(
                f"task {self.task_id}{self.task_set} has an empty ground "
                f"truth on this dataset"
            )
        return answer

    def flat_result_rows(self, engine: SqliteDatabase) -> int:
        """Row count of the flat join — drives result-interpretation time
        (duplicated rows are the paper's core usability complaint)."""
        return len(engine.execute(self.flat_sql).rows)


# ----------------------------------------------------------------------
# Parameterized ETable solution scripts (shared across matched sets)
# ----------------------------------------------------------------------
def _script_task1(title: str):
    def run(session: EtableSession) -> tuple[frozenset, list[UiStep]]:
        session.open("Papers")
        etable = session.filter(AttributeCompare("title", "=", title))
        answer = frozenset(row.attributes["year"] for row in etable.rows)
        steps = [
            UiStep("open"),
            UiStep("filter", typed_chars=len(title)),
            UiStep("read", rows_to_read=len(etable.rows)),
        ]
        return answer, steps
    return run


def _script_task2(title: str):
    def run(session: EtableSession) -> tuple[frozenset, list[UiStep]]:
        session.open("Papers")
        etable = session.filter(AttributeCompare("title", "=", title))
        etable = session.see_all(etable.row(0), "Papers->Paper_Keywords")
        answer = frozenset(row.attributes["keyword"] for row in etable.rows)
        steps = [
            UiStep("open"),
            UiStep("filter", typed_chars=len(title)),
            UiStep("see_all"),
            UiStep("read", rows_to_read=len(etable.rows)),
        ]
        return answer, steps
    return run


def _script_task3(author: str, year: int):
    def run(session: EtableSession) -> tuple[frozenset, list[UiStep]]:
        session.open("Authors")
        etable = session.filter(AttributeCompare("name", "=", author))
        etable = session.see_all(etable.row(0), "Authors->Papers")
        etable = session.filter(AttributeCompare("year", ">=", year))
        answer = frozenset(row.attributes["title"] for row in etable.rows)
        steps = [
            UiStep("open"),
            UiStep("filter", typed_chars=len(author)),
            UiStep("see_all"),
            UiStep("filter", typed_chars=len(str(year))),
            UiStep("read", rows_to_read=len(etable.rows)),
        ]
        return answer, steps
    return run


def _script_task4(institution: str, conference: str):
    def run(session: EtableSession) -> tuple[frozenset, list[UiStep]]:
        session.open("Institutions")
        etable = session.filter(AttributeCompare("name", "=", institution))
        etable = session.see_all(etable.row(0), "Institutions->Authors")
        etable = session.pivot("Authors->Papers")
        etable = session.filter_by_neighbor(
            "Papers->Conferences", AttributeCompare("acronym", "=", conference)
        )
        answer = frozenset(row.attributes["title"] for row in etable.rows)
        steps = [
            UiStep("open"),
            UiStep("filter", typed_chars=len(institution)),
            UiStep("see_all"),
            UiStep("pivot"),
            UiStep("filter", typed_chars=len(conference)),
            UiStep("read", rows_to_read=len(etable.rows)),
        ]
        return answer, steps
    return run


def _script_task5(country_pattern: str):
    def run(session: EtableSession) -> tuple[frozenset, list[UiStep]]:
        session.open("Institutions")
        etable = session.filter(AttributeLike("country", country_pattern))
        etable = session.sort("Institutions->Authors", descending=True)
        answer = frozenset({etable.row(0).attributes["name"]})
        steps = [
            UiStep("open"),
            UiStep("filter", typed_chars=len(country_pattern)),
            UiStep("sort"),
            UiStep("read", rows_to_read=2),
        ]
        return answer, steps
    return run


def _script_task6(conference: str):
    def run(session: EtableSession) -> tuple[frozenset, list[UiStep]]:
        session.open("Conferences")
        etable = session.filter(AttributeCompare("acronym", "=", conference))
        etable = session.see_all(etable.row(0), "Conferences->Papers")
        etable = session.pivot("Papers->Authors")
        etable = session.sort("Papers", descending=True)  # participating col
        threshold = etable.row(min(2, len(etable.rows) - 1)).ref_count("Papers")
        answer = frozenset(
            row.attributes["name"]
            for row in etable.rows
            if row.ref_count("Papers") >= threshold
        )
        steps = [
            UiStep("open"),
            UiStep("filter", typed_chars=len(conference)),
            UiStep("see_all"),
            UiStep("pivot"),
            UiStep("sort"),
            UiStep("read", rows_to_read=3),
        ]
        return answer, steps
    return run


# ----------------------------------------------------------------------
# Task construction
# ----------------------------------------------------------------------
def _attribute_task(task_id: int, task_set: str, title: str) -> TaskSpec:
    description = (
        f"Find the year that the paper titled '{title}' was published in."
        if task_id == 1
        else f"Find all the keywords of the paper titled '{title}'."
    )
    if task_id == 1:
        gt = (
            "SELECT p.year FROM Papers p "
            f"WHERE p.title = '{title}'"
        )
        flat = gt
        relations, joins = 1, 0
        script = _script_task1(title)
    else:
        gt = (
            "SELECT k.keyword FROM Papers p, Paper_Keywords k "
            f"WHERE k.paper_id = p.id AND p.title = '{title}'"
        )
        flat = (
            "SELECT p.title, k.keyword FROM Papers p, Paper_Keywords k "
            f"WHERE k.paper_id = p.id AND p.title = '{title}'"
        )
        relations, joins = 2, 1
        script = _script_task2(title)
    return TaskSpec(
        task_id=task_id,
        task_set=task_set,
        description=description,
        category="Attribute",
        relations=relations,
        ground_truth_sql=gt,
        flat_sql=flat,
        has_group_by=False,
        join_count=joins,
        predicate_count=1,
        typed_chars=len(title),
        etable_script=script,
    )


def _filter_task3(task_set: str, author: str, year: int) -> TaskSpec:
    return TaskSpec(
        task_id=3,
        task_set=task_set,
        description=(
            f"Find all the papers that were written by '{author}' and "
            f"published in {year} or after."
        ),
        category="Filter",
        relations=3,
        ground_truth_sql=(
            "SELECT p.title FROM Papers p, Paper_Authors pa, Authors a "
            "WHERE pa.paper_id = p.id AND pa.author_id = a.id "
            f"AND a.name = '{author}' AND p.year >= {year}"
        ),
        flat_sql=(
            "SELECT p.title, a.name FROM Papers p, Paper_Authors pa, Authors a "
            "WHERE pa.paper_id = p.id AND pa.author_id = a.id "
            f"AND a.name = '{author}' AND p.year >= {year}"
        ),
        has_group_by=False,
        join_count=2,
        predicate_count=2,
        typed_chars=len(author) + 4,
        etable_script=_script_task3(author, year),
    )


def _filter_task4(task_set: str, institution: str, conference: str) -> TaskSpec:
    return TaskSpec(
        task_id=4,
        task_set=task_set,
        description=(
            f"Find all the papers written by researchers at '{institution}' "
            f"and published at the {conference} conference."
        ),
        category="Filter",
        relations=5,
        ground_truth_sql=(
            "SELECT DISTINCT p.title FROM Papers p, Paper_Authors pa, "
            "Authors a, Institutions i, Conferences c "
            "WHERE pa.paper_id = p.id AND pa.author_id = a.id "
            "AND a.institution_id = i.id AND p.conference_id = c.id "
            f"AND i.name = '{institution}' AND c.acronym = '{conference}'"
        ),
        flat_sql=(
            "SELECT p.title, a.name FROM Papers p, Paper_Authors pa, "
            "Authors a, Institutions i, Conferences c "
            "WHERE pa.paper_id = p.id AND pa.author_id = a.id "
            "AND a.institution_id = i.id AND p.conference_id = c.id "
            f"AND i.name = '{institution}' AND c.acronym = '{conference}'"
        ),
        has_group_by=False,
        join_count=4,
        predicate_count=2,
        typed_chars=len(institution) + len(conference),
        etable_script=_script_task4(institution, conference),
    )


def _aggregate_task5(task_set: str, country: str, pattern: str) -> TaskSpec:
    return TaskSpec(
        task_id=5,
        task_set=task_set,
        description=(
            f"Which institution in {country} has the largest number of "
            "researchers?"
        ),
        category="Aggregate",
        relations=2,
        ground_truth_sql=(
            "SELECT i.name FROM Institutions i, Authors a "
            "WHERE a.institution_id = i.id "
            f"AND i.country LIKE '{pattern}' "
            "GROUP BY i.id ORDER BY COUNT(a.id) DESC, i.name ASC LIMIT 1"
        ),
        flat_sql=(
            "SELECT i.name, a.name FROM Institutions i, Authors a "
            "WHERE a.institution_id = i.id "
            f"AND i.country LIKE '{pattern}'"
        ),
        has_group_by=True,
        join_count=1,
        predicate_count=1,
        typed_chars=len(pattern),
        etable_script=_script_task5(pattern),
        superlative=True,
    )


def _aggregate_task6(task_set: str, conference: str) -> TaskSpec:
    return TaskSpec(
        task_id=6,
        task_set=task_set,
        description=(
            f"Find the top 3 researchers who have published the most papers "
            f"in the {conference} conference."
        ),
        category="Aggregate",
        relations=4,
        # Ties at the third place are included on both sides (count >= the
        # third-highest participant count), so the answer is deterministic.
        ground_truth_sql=(
            "SELECT a.name, COUNT(p.id) AS cnt "
            "FROM Authors a, Paper_Authors pa, Papers p, Conferences c "
            "WHERE pa.author_id = a.id AND pa.paper_id = p.id "
            "AND p.conference_id = c.id "
            f"AND c.acronym = '{conference}' "
            "GROUP BY a.id ORDER BY cnt DESC, a.name ASC"
        ),
        flat_sql=(
            "SELECT a.name, p.title "
            "FROM Authors a, Paper_Authors pa, Papers p, Conferences c "
            "WHERE pa.author_id = a.id AND pa.paper_id = p.id "
            "AND p.conference_id = c.id "
            f"AND c.acronym = '{conference}'"
        ),
        has_group_by=True,
        join_count=3,
        predicate_count=1,
        typed_chars=len(conference),
        etable_script=_script_task6(conference),
    )


def task_set_a() -> list[TaskSpec]:
    """Table 2 verbatim."""
    return [
        _attribute_task(1, "A", "Making database systems usable"),
        _attribute_task(2, "A", "Collaborative filtering with temporal dynamics"),
        _filter_task3("A", "Samuel Madden", 2013),
        _filter_task4("A", "Carnegie Mellon University", "KDD"),
        _aggregate_task5("A", "South Korea", "%Korea%"),
        _aggregate_task6("A", "SIGMOD"),
    ]


def task_set_b() -> list[TaskSpec]:
    """The matched set: same structure, different parameter values."""
    return [
        _attribute_task(1, "B", "Spreadsheet as a relational database engine"),
        _attribute_task(2, "B", "Interactive data mining with evolving queries"),
        _filter_task3("B", "Jeffrey Heer", 2012),
        _filter_task4("B", "Stanford University", "CHI"),
        _aggregate_task5("B", "Germany", "%Germany%"),
        _aggregate_task6("B", "KDD"),
    ]


def top3_ground_truth(engine: SqliteDatabase, task: TaskSpec) -> frozenset:
    """Ground truth for task 6: everyone at or above the third-highest count."""
    result = engine.execute(task.ground_truth_sql)
    if not result.rows:
        raise TaskDefinitionError("task 6 has no qualifying researchers")
    counts = [row[1] for row in result.rows]
    threshold = counts[min(2, len(counts) - 1)]
    return frozenset(row[0] for row in result.rows if row[1] >= threshold)


def ground_truth_for(engine: SqliteDatabase, task: TaskSpec) -> frozenset:
    """Dispatch: task 6 needs the tie-aware top-3 rule."""
    if task.task_id == 6:
        return top3_ground_truth(engine, task)
    return task.ground_truth(engine)
