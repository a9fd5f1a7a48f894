"""Benchmark fixtures.

The default corpus is 1,200 papers (4,800 for the planner-speedup and
action-latency benches) so the full bench suite completes in a few minutes.
``REPRO_BENCH_PAPERS`` overrides that default in every bench that browses
one corpus; set it to 38000 to run at the paper's scale (Section 7.1:
~38,000 papers from 19 conferences).
"""

from __future__ import annotations

import os

import pytest

from repro import datasets

BENCH_PAPERS = int(os.environ.get("REPRO_BENCH_PAPERS", "1200"))


@pytest.fixture(scope="session")
def bench_tgdb():
    return datasets.academic_tgdb(
        datasets.AcademicConfig(papers=BENCH_PAPERS, seed=7))


@pytest.fixture(scope="session")
def bench_db(bench_tgdb):
    return bench_tgdb.database


@pytest.fixture(scope="session")
def bench_movies_tgdb():
    return datasets.movies_tgdb(
        datasets.MoviesConfig(movies=400, people=300, seed=11))


@pytest.fixture(scope="session")
def bench_movies_db(bench_movies_tgdb):
    return bench_movies_tgdb.database


@pytest.fixture(scope="session")
def toy_tgdb():
    return datasets.toy_tgdb()


@pytest.fixture(scope="session")
def toy_db(toy_tgdb):
    return toy_tgdb.database


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay every reproduced table/figure after the benchmark summary.

    pytest captures per-test stdout of passing tests; draining the report
    buffer here makes ``pytest benchmarks/ --benchmark-only`` emit the
    paper-style output (and therefore land in bench_output.txt).
    """
    from repro.bench.reporting import drain_report

    text = drain_report()
    if text:
        terminalreporter.write_sep("=", "reproduced tables & figures")
        terminalreporter.write_line(text)
