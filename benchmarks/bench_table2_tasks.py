"""Table 2 — the six study tasks, executed end to end.

Reproduces the task list with its category and #Relations columns, proves
every task is solvable in ETable (script answer == ground-truth SQL answer),
and benchmarks solving the whole set through the session API.
"""

from repro.bench import banner, format_table, report, save_result
from repro.core.session import EtableSession
from repro.relational import SqliteDatabase
from repro.study.tasks import ground_truth_for, task_set_a


def _solve_all(tgdb, tasks):
    answers = []
    for task in tasks:
        session = EtableSession(tgdb.schema, tgdb.graph)
        answer, _steps = task.etable_script(session)
        answers.append(answer)
    return answers


def test_table2_tasks(bench_db, bench_tgdb, benchmark):
    tasks = task_set_a()
    with SqliteDatabase(bench_db) as engine:
        truths = [ground_truth_for(engine, task) for task in tasks]

    answers = benchmark.pedantic(_solve_all, args=(bench_tgdb, tasks),
                                 rounds=3, iterations=1)

    rows = []
    for task, answer, truth in zip(tasks, answers, truths):
        rows.append([
            task.task_id,
            task.description[:68],
            task.category,
            task.relations,
            "✓" if answer == truth else "✗",
            len(answer),
        ])
    report(banner("Table 2: task list (set A) with verified ETable answers"))
    report(format_table(
        ["#", "task", "category", "#relations", "etable==sql", "answer size"],
        rows,
    ))

    assert all(answer == truth for answer, truth in zip(answers, truths))
    assert [task.relations for task in tasks] == [1, 2, 3, 5, 2, 4]
    save_result(
        "table2",
        {
            f"task{task.task_id}": {
                "category": task.category,
                "relations": task.relations,
                "answer_size": len(answer),
            }
            for task, answer in zip(tasks, answers)
        },
    )
