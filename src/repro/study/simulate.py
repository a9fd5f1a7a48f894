"""The within-subjects study protocol (Section 7.1).

Twelve simulated participants complete six tasks in each condition (ETable
and the Navicat-like builder). Condition order is counterbalanced — six
participants start with ETable, six with Navicat — and the two matched task
sets alternate between conditions across participants. A task is cut off at
300 seconds, recorded as 300 s, exactly as the study protocol specifies.

Each task's ETable solution script is executed once for real (validating
its answer against the ground-truth SQL); pricing is then per-participant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StudyError
from repro.relational.database import Database
from repro.relational.sqlite import SqliteDatabase
from repro.tgm.instance_graph import InstanceGraph
from repro.tgm.schema_graph import SchemaGraph
from repro.core.session import EtableSession
from repro.study.etable_user import TaskOutcome, simulate_etable_task
from repro.study.navicat_user import simulate_navicat_task
from repro.study.participants import Participant, generate_participants
from repro.study.stats import TaskStats, task_stats
from repro.study.tasks import (
    TaskSpec,
    UiStep,
    ground_truth_for,
    task_set_a,
    task_set_b,
)

ETABLE = "etable"
NAVICAT = "navicat"


@dataclass
class StudyConfig:
    participant_count: int = 12
    seed: int = 42


@dataclass
class PreparedTask:
    """A task with its ground truth, validated ETable script, and flat-join
    size, computed once per study run."""

    spec: TaskSpec
    ground_truth: frozenset
    etable_answer: frozenset
    etable_steps: list[UiStep]
    flat_rows: int

    @property
    def etable_correct(self) -> bool:
        return self.etable_answer == self.ground_truth


@dataclass
class StudyResult:
    participants: list[Participant]
    # (participant_id, condition, task_id) -> outcome
    outcomes: dict[tuple[int, str, int], TaskOutcome]
    per_task: list[TaskStats] = field(default_factory=list)

    def times(self, condition: str, task_id: int) -> list[float]:
        return [
            self.outcomes[(p.participant_id, condition, task_id)].seconds
            for p in self.participants
        ]

    def participant_speedup(self, participant_id: int) -> float:
        """Mean Navicat time / mean ETable time for one participant."""
        etable = [
            outcome.seconds
            for (pid, condition, _), outcome in self.outcomes.items()
            if pid == participant_id and condition == ETABLE
        ]
        navicat = [
            outcome.seconds
            for (pid, condition, _), outcome in self.outcomes.items()
            if pid == participant_id and condition == NAVICAT
        ]
        return (sum(navicat) / len(navicat)) / (sum(etable) / len(etable))

    def etable_success_rate(self, participant_id: int) -> float:
        outcomes = [
            outcome
            for (pid, condition, _), outcome in self.outcomes.items()
            if pid == participant_id and condition == ETABLE
        ]
        return sum(1 for o in outcomes if o.correct) / len(outcomes)


def prepare_tasks(
    database: Database,
    schema: SchemaGraph,
    graph: InstanceGraph,
) -> dict[str, list[PreparedTask]]:
    """Resolve ground truths and validate every ETable script, per task set.

    The database is loaded into SQLite once for all 24 statements.
    """
    prepared: dict[str, list[PreparedTask]] = {}
    with SqliteDatabase(database) as engine:
        for set_name, tasks in (("A", task_set_a()), ("B", task_set_b())):
            bundle: list[PreparedTask] = []
            for task in tasks:
                truth = ground_truth_for(engine, task)
                session = EtableSession(schema, graph)
                answer, steps = task.etable_script(session)
                if answer != truth:
                    raise StudyError(
                        f"task {task.task_id}{task.task_set}: the ETable "
                        f"script answer {sorted(map(str, answer))[:5]!r} does "
                        f"not match ground truth "
                        f"{sorted(map(str, truth))[:5]!r}"
                    )
                bundle.append(
                    PreparedTask(
                        spec=task,
                        ground_truth=truth,
                        etable_answer=answer,
                        etable_steps=steps,
                        flat_rows=task.flat_result_rows(engine),
                    )
                )
            prepared[set_name] = bundle
    return prepared


def run_study(
    database: Database,
    schema: SchemaGraph,
    graph: InstanceGraph,
    config: StudyConfig | None = None,
) -> StudyResult:
    """Execute the full within-subjects protocol."""
    config = config or StudyConfig()
    participants = generate_participants(config.participant_count, config.seed)
    prepared = prepare_tasks(database, schema, graph)

    outcomes: dict[tuple[int, str, int], TaskOutcome] = {}
    for index, participant in enumerate(participants):
        conditions = (
            (ETABLE, NAVICAT) if index % 2 == 0 else (NAVICAT, ETABLE)
        )
        # Alternate which matched set goes with the first condition.
        sets = ("A", "B") if (index // 2) % 2 == 0 else ("B", "A")
        for position, condition in enumerate(conditions):
            tasks = prepared[sets[position]]
            second = position == 1
            groupby_experience = False
            for task in tasks:
                if condition == ETABLE:
                    outcome = simulate_etable_task(
                        task.spec,
                        task.etable_steps,
                        task.etable_correct,
                        participant,
                        second_condition=second,
                    )
                else:
                    outcome = simulate_navicat_task(
                        task.spec,
                        task.flat_rows,
                        participant,
                        second_condition=second,
                        groupby_experience=groupby_experience,
                    )
                    if task.spec.has_group_by and outcome.correct:
                        groupby_experience = True
                outcomes[
                    (participant.participant_id, condition, task.spec.task_id)
                ] = outcome

    result = StudyResult(participants=participants, outcomes=outcomes)
    result.per_task = [
        task_stats(
            task_id,
            result.times(ETABLE, task_id),
            result.times(NAVICAT, task_id),
        )
        for task_id in range(1, 7)
    ]
    return result
