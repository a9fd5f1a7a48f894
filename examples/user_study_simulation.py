#!/usr/bin/env python3
"""Run the simulated user study (Section 7) and print Figure 10 & Table 3.

Twelve simulated participants complete the six Table 2 tasks in both
conditions (ETable vs a Navicat-like graphical query builder), within
subjects, counterbalanced, with the 300-second cap. Prints the per-task
means next to the paper's numbers, the significance markers, and the
subjective ratings.

Run:  python examples/user_study_simulation.py [seed]
"""

import sys

from repro.datasets.academic import AcademicConfig, academic_tgdb
from repro.study import StudyConfig, run_study, simulate_ratings

PAPER_ETABLE = [34.9, 39.5, 57.2, 150.5, 59.0, 104.8]
PAPER_NAVICAT = [53.2, 54.4, 92.3, 218.5, 231.6, 198.5]


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    tgdb = academic_tgdb(AcademicConfig(papers=1200, seed=7))

    result = run_study(tgdb.database, tgdb.schema, tgdb.graph, StudyConfig(seed=seed))

    print("Figure 10 — average task completion time (seconds)")
    print(f"{'task':>5} {'ETable sim':>12} {'ETable paper':>13} "
          f"{'Navicat sim':>12} {'Navicat paper':>14} {'p':>8}  sig")
    for stats in result.per_task:
        print(
            f"{stats.task_id:>5} "
            f"{stats.etable_mean:>7.1f} ±{stats.etable_ci95:<4.0f} "
            f"{PAPER_ETABLE[stats.task_id - 1]:>13.1f} "
            f"{stats.navicat_mean:>7.1f} ±{stats.navicat_ci95:<4.0f} "
            f"{PAPER_NAVICAT[stats.task_id - 1]:>14.1f} "
            f"{stats.p_value:>8.4f}  {stats.significance}"
        )

    ratings = simulate_ratings(result)
    print("\nTable 3 — subjective ratings (7-point Likert)")
    for question, mean in ratings.means().items():
        print(f"  {mean:.2f}  {question}")

    print("\nPreference votes (ETable over the query builder):")
    for aspect, count in ratings.preferences.items():
        print(f"  {count:>2}/12  {aspect}")


if __name__ == "__main__":
    main()
