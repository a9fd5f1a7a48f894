"""Unit tests for the study tasks (Table 2)."""

import pytest

from repro.core.session import EtableSession
from repro.study.tasks import (
    ground_truth_for,
    task_set_a,
    task_set_b,
)


class TestTaskDefinitions:
    def test_six_tasks_per_set(self):
        assert len(task_set_a()) == 6
        assert len(task_set_b()) == 6

    def test_categories_match_table2(self):
        categories = [task.category for task in task_set_a()]
        assert categories == [
            "Attribute", "Attribute", "Filter", "Filter",
            "Aggregate", "Aggregate",
        ]

    def test_relation_counts_match_table2(self):
        relations = [task.relations for task in task_set_a()]
        assert relations == [1, 2, 3, 5, 2, 4]

    def test_matched_sets_same_structure(self):
        for a, b in zip(task_set_a(), task_set_b()):
            assert a.task_id == b.task_id
            assert a.category == b.category
            assert a.relations == b.relations
            assert a.has_group_by == b.has_group_by
            assert a.join_count == b.join_count

    def test_only_task5_superlative(self):
        for task in task_set_a():
            assert task.superlative == (task.task_id == 5)

    def test_descriptions_follow_table2(self):
        tasks = task_set_a()
        assert "Making database systems usable" in tasks[0].description
        assert "Samuel Madden" in tasks[2].description
        assert "Carnegie Mellon University" in tasks[3].description
        assert "South Korea" in tasks[4].description
        assert "top 3" in tasks[5].description


class TestGroundTruths:
    @pytest.mark.parametrize("set_name", ["A", "B"])
    def test_all_ground_truths_nonempty(self, academic_sql, set_name):
        tasks = task_set_a() if set_name == "A" else task_set_b()
        for task in tasks:
            truth = ground_truth_for(academic_sql, task)
            assert truth, f"task {task.task_id}{set_name} has empty truth"

    def test_task1_answer(self, academic_sql):
        truth = ground_truth_for(academic_sql, task_set_a()[0])
        assert truth == frozenset({2007})

    def test_task5_answer(self, academic_sql):
        truth = ground_truth_for(academic_sql, task_set_a()[4])
        assert truth == frozenset({"KAIST"})

    def test_task6_tie_aware(self, academic_sql):
        truth = ground_truth_for(academic_sql, task_set_a()[5])
        assert len(truth) >= 3


class TestEtableScripts:
    @pytest.mark.parametrize("index", range(6))
    def test_script_matches_ground_truth_set_a(self, academic, academic_sql, index):
        task = task_set_a()[index]
        truth = ground_truth_for(academic_sql, task)
        session = EtableSession(academic.schema, academic.graph)
        answer, steps = task.etable_script(session)
        assert answer == truth
        assert steps[0].kind == "open"
        assert steps[-1].kind == "read"

    @pytest.mark.parametrize("index", range(6))
    def test_script_matches_ground_truth_set_b(self, academic, academic_sql, index):
        task = task_set_b()[index]
        truth = ground_truth_for(academic_sql, task)
        session = EtableSession(academic.schema, academic.graph)
        answer, _steps = task.etable_script(session)
        assert answer == truth

    def test_flat_results_inflated_by_joins(self, academic_sql):
        """The flat join of task 6 has (author, paper) duplication."""
        task = task_set_a()[5]
        flat_rows = task.flat_result_rows(academic_sql)
        distinct_authors = len(ground_truth_for(academic_sql, task))
        assert flat_rows > distinct_authors
