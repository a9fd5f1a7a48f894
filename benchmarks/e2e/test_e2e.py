"""Smoke test of the end-to-end benchmark.

A 300-paper corpus and a quarter second's worth of timed sessions: the metrics
BENCHMARK.json names are emitted with their units, every span is patched
in where the service calls it, and a wrong oracle page or a failed
request fails the run.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import run
import spans

SMOKE = ["--papers", "300", "--seconds", "0.25", "--seed", "5"]
BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text("utf-8")
)


def _main(argv: list[str], out: Path) -> tuple[int, dict, list[dict] | None]:
    """Exit code, the last stdout line, and the results written to out."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = run.main([*argv, "--out", str(out)])
    line = json.loads(stdout.getvalue().splitlines()[-1])
    written = sorted(out.glob("*.json"))
    results = json.loads(written[0].read_text("utf-8"))["results"] \
        if written else None
    return code, line, results


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _main([*SMOKE, "--trace", "1"], tmp_path_factory.mktemp("trace"))


def test_every_end_to_end_metric_is_emitted_with_its_unit(tmp_path):
    code, line, _results = _main([*SMOKE, "--workload", "pivot-fleet"],
                                 tmp_path)
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert line["attempted"] > 0
    for metric in BENCHMARK["end_to_end"]:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert emitted["value"] > 0, metric["name"]


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    code, line, results = traced
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert [result["workload"] for result in results] == [
        workload["name"] for workload in BENCHMARK["workloads"]]
    for result in results:
        for metric in BENCHMARK["per_layer"]:
            emitted = line["metrics"][f"{result['workload']}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"], metric["name"]
            assert isinstance(emitted["value"], float), metric["name"]


def test_every_span_fires_on_some_workload(traced):
    _code, _line, results = traced
    fired = {span for result in results for span in spans.SPANS
             if result["layers"][f"{span}.calls"] > 0}
    assert fired == set(spans.SPANS) - set(spans.INCREMENTAL_ONLY)


def test_a_wrong_oracle_page_fails_the_run(tmp_path, monkeypatch):
    oracle_page = run.oracle_page

    def planted(*args):
        page = oracle_page(*args)
        page["total_rows"] += 1
        return page

    monkeypatch.setattr(run, "oracle_page", planted)
    code, line, results = _main([*SMOKE, "--workload", "cold-filter"],
                                tmp_path)
    assert code == 1 and line["correct"] is False
    assert results is None  # nothing written


def test_a_failed_timed_request_fails_the_run(tmp_path, monkeypatch):
    run_sessions = run.run_sessions
    phases = []

    def planted(*args):
        tally = run_sessions(*args)
        phases.append(tally)
        if len(phases) == 2:  # the timed phase, after the warm-up
            tally.failed += 1
        return tally

    monkeypatch.setattr(run, "run_sessions", planted)
    code, line, results = _main([*SMOKE, "--workload", "cold-filter"],
                                tmp_path)
    assert code == 1 and line["correct"] is False and line["failed"] == 1
    assert results is None  # nothing written
