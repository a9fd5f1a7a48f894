"""End-to-end ETable interaction benchmark over HTTP.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--repeat N] [--out DIR]

For each workload: boot the service (``server.py``) on a free loopback
port three times and keep the last boot, run an untimed warm-up, drive
one closed-loop client over HTTP through a fixed set of seeded sessions
(as many as the reference machine completes in ``--seconds``), read
``/v1/stats``, stop the server, then replay a seeded sample of the
sessions through the naive oracle and compare final pages. Every metric
is printed by name with its unit; the last stdout line is one JSON
object (``correct``/``attempted``/``failed``/``metrics``) and the full
results go to ``--out``. ``--trace 1`` runs the workload twice, untraced and
then with per-layer spans, and reports the per-layer metrics. Any
divergence from the oracle, or a server that exits non-zero, fails the
run: exit code 1 and nothing written to ``--out``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import itertools
import json
import math
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

# Benchmark the checkout this file sits in, never an installed copy.
sys.path.insert(0, str(SRC))
import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"repro was imported from {repro.__file__}, "
                     f"not from {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402
from loadgen import Tally, run_sessions  # noqa: E402
from server import ROW_LIMIT, ServerProcess, build_corpus  # noqa: E402

PAPERS = 4800
FLEET_WORKERS = 2
SETUP_BOOTS = 3
# The correctness gate replays at least this share, and this many, of
# the completed sessions.
GATE_SHARE = 0.10
GATE_MIN = 10

END_TO_END_UNITS = {
    "interaction_p50_ms": "ms",
    "interaction_p95_ms": "ms",
    "interactions_per_s": "1/s",
    "setup_s": "s",
    "rss_peak_mb": "MB",
    "bytes_per_interaction": "B",
}
COUNTER_UNITS = {
    "cache.result_hit_rate": "ratio",
    "cache.prefix_hit_rate": "ratio",
    "cache.plan_hit_rate": "ratio",
    "cache.result_evictions": "1/interaction",
    "journal.compactions": "1/interaction",
    "stream.snapshot_frames": "1/interaction",
    "stream.identity_skips": "1/interaction",
}
LAYER_UNITS = {
    **{f"{span}.{kind}": unit
       for span in spans.SPANS
       for kind, unit in (("calls", "1/interaction"), ("busy_ms", "ms"),
                          ("wait_ms", "ms"))},
    "http.overhead_ms": "ms",
    "fleet.hop_ms": "ms",
    "trace.overhead": "ratio",
    **COUNTER_UNITS,
}


def benchmark_json() -> dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text("utf-8")) if path.exists() else {}


# ----------------------------------------------------------------------
# One measured phase: warm-up, timed closed loop, counters, stop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Settings:
    seconds: float
    trace: bool
    papers: int
    scratch: Path
    # The server's process tree runs here (None: anywhere).
    server_cpus: set[int] | None


@dataclass
class Phase:
    tally: Tally
    window: tuple[float, float]
    before: dict[str, Any]
    after: dict[str, Any]
    rss_peak_mb: float
    exit_code: int

    @property
    def interactions(self) -> int:
        return len(self.tally.latencies_ms)

    @property
    def interactions_per_s(self) -> float:
        return self.interactions / (self.window[1] - self.window[0])


def get_stats(port: int) -> dict[str, Any]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", "/v1/stats")
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    if response.status != 200:
        raise RuntimeError(f"/v1/stats answered HTTP {response.status}")
    return json.loads(body)["result"]


def phase_sessions(workload: str, seed: int,
                   settings: Settings) -> tuple[list, list]:
    """(warm-up, timed) sessions, consecutive in the seeded sequence."""
    spec = workloads.WORKLOADS[workload]
    warm = workloads.WARMUP_SESSIONS
    timed = max(1, round(settings.seconds * spec.sessions_per_s))
    sequence = list(itertools.islice(workloads.sessions(workload, seed),
                                     warm + timed))
    return sequence[:warm], sequence[warm:]


def measure(server: ServerProcess, workload: str, seed: int,
            settings: Settings) -> Phase:
    spec = workloads.WORKLOADS[workload]
    warmup, timed = phase_sessions(workload, seed, settings)
    warm = run_sessions(server.port, spec.stream, warmup)
    if warm.failed:
        raise RuntimeError(f"{warm.failed} warm-up requests failed")
    before = get_stats(server.port)
    start = time.monotonic()
    tally = run_sessions(server.port, spec.stream, timed)
    end = time.monotonic()
    after = get_stats(server.port)
    rss = server.tree_rss_peak_mb()
    return Phase(tally, (start, end), before, after, rss, server.stop())


@contextlib.contextmanager
def booted(settings: Settings, fleet: bool,
           trace_dir: Path | None = None) -> Iterator[ServerProcess]:
    journal_dir = tempfile.mkdtemp(prefix="journal-", dir=settings.scratch)
    server = ServerProcess(SRC, settings.papers, Path(journal_dir),
                           fleet=FLEET_WORKERS if fleet else 0,
                           trace_dir=trace_dir, cpus=settings.server_cpus)
    try:
        yield server
    finally:
        server.kill()  # the whole process group, whatever happened


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(phase: Phase, setup_s: list[float]) -> dict[str, float]:
    latencies = phase.tally.latencies_ms
    return {
        "interaction_p50_ms": statistics.median(latencies),
        # p95, not p99: a run completes 513-3780 interactions, and p99
        # over that few did not repeat from seed to seed (README).
        "interaction_p95_ms": statistics.quantiles(
            latencies, n=20, method="inclusive")[18],
        "interactions_per_s": phase.interactions_per_s,
        "setup_s": statistics.median(setup_s),
        "rss_peak_mb": phase.rss_peak_mb,
        "bytes_per_interaction":
            phase.tally.interaction_bytes / phase.interactions,
    }


def _counts(stats: dict[str, Any]) -> Counter:
    blocks = ([worker for worker in stats["fleet"]["per_worker"].values()
               if "cache" in worker]
              if "fleet" in stats else [stats])
    counts: Counter = Counter()
    for block in blocks:
        cache = block["cache"]
        counts["hits"] += cache["hits"]
        counts["misses"] += cache["misses"]
        counts["prefix_hits"] += cache["prefix_hits"]
        counts["plan_hits"] += cache["plan_cache"]["hits"]
        counts["plan_misses"] += cache["plan_cache"]["misses"]
        counts["evictions"] += cache["results"]["evictions"]
        counts["compactions"] += block["journal_compactions"]
    stream = stats.get("stream", {})
    counts["snapshots"] += stream.get("snapshots", 0)
    counts["identity_skips"] += stream.get("identity_skips", 0)
    return counts


def counter_metrics(phase: Phase) -> dict[str, float]:
    """``/v1/stats`` counters over the timed phase (end minus start)."""
    delta = _counts(phase.after)
    delta.subtract(_counts(phase.before))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    per = phase.interactions
    return {
        "cache.result_hit_rate": ratio(delta["hits"],
                                       delta["hits"] + delta["misses"]),
        "cache.prefix_hit_rate": ratio(delta["prefix_hits"], delta["misses"]),
        "cache.plan_hit_rate": ratio(delta["plan_hits"],
                                     delta["plan_hits"]
                                     + delta["plan_misses"]),
        "cache.result_evictions": delta["evictions"] / per,
        "journal.compactions": delta["compactions"] / per,
        "stream.snapshot_frames": delta["snapshots"] / per,
        "stream.identity_skips": delta["identity_skips"] / per,
    }


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def oracle_page(tgdb, session: workloads.Session,
                params: dict[str, Any]) -> dict[str, Any]:
    """The session's final page from the naive reference matcher."""
    from repro.core.session import EtableSession
    from repro.service import protocol

    oracle = EtableSession(tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT,
                           engine="naive")
    for step in session.steps:
        if step.action is not None:
            protocol.apply_action(oracle, step.action, step.params)
    page = protocol.apply_action(oracle, "etable", params)["etable"]
    return json.loads(json.dumps(page, default=str))


def divergences(tally: Tally, workload: str, seed: int,
                papers: int) -> list[str]:
    """Replay a seeded sample of the completed sessions through the
    oracle; on a streaming workload also fold every session's frames and
    compare with its final full page."""
    from repro.service import fold_frame, frame_from_json

    completed = [record for record in tally.records if record.ok]
    size = min(len(completed),
               max(GATE_MIN, math.ceil(GATE_SHARE * len(completed))))
    sample = random.Random(f"gate:{workload}:{seed}").sample(completed, size)
    tgdb = build_corpus(papers)
    problems = []
    for record in sample:
        served = json.loads(record.final_body)["result"]["etable"]
        if served != oracle_page(tgdb, record.session, record.final_params):
            problems.append(f"{record.session.session_id}: final page "
                            f"differs from the naive oracle")
    if workloads.WORKLOADS[workload].stream:
        for record in completed:
            state = None
            for data in record.frames:
                state = fold_frame(state, frame_from_json(json.loads(data)))
            if state != json.loads(record.final_body)["result"]["etable"]:
                problems.append(f"{record.session.session_id}: folded SSE "
                                f"state differs from GET .../etable")
    return problems


# ----------------------------------------------------------------------
# One workload, end to end
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int,
                 settings: Settings) -> dict[str, Any]:
    spec = workloads.WORKLOADS[workload]
    setup_s: list[float] = []
    phase = None
    boots = 1 if settings.trace else SETUP_BOOTS
    for boot in range(boots):
        with booted(settings, spec.fleet) as server:
            setup_s.append(server.setup_s)
            if boot == boots - 1:
                phase = measure(server, workload, seed, settings)
            elif server.stop() != 0:
                raise RuntimeError("server exited non-zero after boot")
    assert phase is not None
    reported, layers = phase, None
    if settings.trace:
        trace_dir = Path(tempfile.mkdtemp(prefix="spans-",
                                          dir=settings.scratch))
        with booted(settings, spec.fleet, trace_dir=trace_dir) as server:
            reported = measure(server, workload, seed, settings)
        layers = spans.layer_metrics(
            spans.load(trace_dir), reported.window, reported.interactions,
            reported.tally.request_s,
        )
        layers["trace.overhead"] = (reported.interactions_per_s
                                    / phase.interactions_per_s)
        layers.update(counter_metrics(reported))
    problems = divergences(reported.tally, workload, seed, settings.papers)
    phases = [phase] if reported is phase else [phase, reported]
    problems += [f"server exited with code {p.exit_code}"
                 for p in phases if p.exit_code != 0]
    # A healthy run fails no request; a failed one ends its session early,
    # which the latency figures would otherwise pass off as a speed-up.
    problems += [f"{p.tally.failed} of {p.tally.attempted} requests failed"
                 for p in phases if p.tally.failed]
    metrics = end_to_end(phase, setup_s)
    metrics["error_rate"] = phase.tally.failed / phase.tally.attempted
    return {
        "workload": workload,
        "seed": seed,
        "seconds": settings.seconds,
        "trace": settings.trace,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(p.tally.attempted for p in phases),
        "failed": sum(p.tally.failed for p in phases),
        "samples": phase.interactions,
        "sessions": sum(record.ok for record in phase.tally.records),
        "setup_boots_s": setup_s,
        "metrics": metrics,
        "layers": layers,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def reported_metrics(result: dict[str, Any]) -> dict[str, tuple[float, str]]:
    if result["trace"]:
        return {name: (result["layers"][name], unit)
                for name, unit in LAYER_UNITS.items()}
    return {name: (result["metrics"][name], unit)
            for name, unit in END_TO_END_UNITS.items()}


def print_result(result: dict[str, Any]) -> None:
    workload = result["workload"]
    print(f"{workload}: seed {result['seed']}, {result['samples']} "
          f"interactions in {result['sessions']} sessions, "
          f"{result['failed']}/{result['attempted']} requests failed")
    units = {**END_TO_END_UNITS, "error_rate": "ratio",
             **(LAYER_UNITS if result["layers"] else {})}
    values = {**result["metrics"], **(result["layers"] or {})}
    for name, unit in units.items():
        print(f"  {workload:14s} {name:34s} {values[name]:14.4f} {unit}")
    for problem in result["problems"]:
        print(f"  {workload:14s} INCORRECT {problem}")


def print_spread(results: list[dict[str, Any]]) -> None:
    """Per metric over the repetitions: median, quartile spread and range
    as shares of the median, next to the bound in BENCHMARK.json."""
    bounds = {metric["name"]: metric.get("bound")
              for metric in benchmark_json().get("end_to_end", ())}
    print("repeatability: median, IQR/median, (max-min)/median, bound")
    by_key: dict[tuple[str, str], list[float]] = {}
    for result in results:
        for name, (value, _unit) in reported_metrics(result).items():
            by_key.setdefault((result["workload"], name), []).append(value)
    for (workload, name), values in by_key.items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        scale = abs(median) or 1.0
        bound = bounds.get(name)
        print(f"  {workload:14s} {name:34s} {median:14.4f} "
              f"{(q3 - q1) / scale:8.3f} "
              f"{(max(values) - min(values)) / scale:8.3f} "
              f"{'-' if bound is None else bound}")


def summary_line(results: list[dict[str, Any]]) -> dict[str, Any]:
    """The last stdout line. One run: its metrics; several: the median of
    each metric per workload, named ``<workload>.<metric>``."""
    if len(results) == 1:
        metrics = reported_metrics(results[0])
    else:
        collected: dict[str, list[tuple[float, str]]] = {}
        for result in results:
            for name, pair in reported_metrics(result).items():
                collected.setdefault(f"{result['workload']}.{name}",
                                     []).append(pair)
        metrics = {name: (statistics.median(v for v, _ in pairs),
                          pairs[0][1])
                   for name, pairs in collected.items()}
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end ETable interaction benchmark over HTTP.")
    parser.add_argument("--workload", action="append",
                        choices=list(workloads.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_json().get("run_seconds", 15),
                        help="timed work per workload: the sessions the "
                             "reference machine completes in this time")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: also run traced, report per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the set N times (seeds S..S+N-1), "
                             "alternating workload order")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--papers", type=int, default=PAPERS,
                        help="corpus size (smaller only for the smoke test)")
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)

    plan = [(args.seed + repetition, workload)
            for repetition in range(args.repeat)
            for workload in (names if repetition % 2 == 0 else names[::-1])]
    args.out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=args.out))
    # With two CPUs or more, the load generator gets the last one and the
    # server's process tree the rest: left to the scheduler, their
    # placement moved refine-stream's median latency by 10-30% between
    # and within runs. On two CPUs a fleet's router and workers share
    # one, which costs nothing while a single client has one request in
    # flight at a time.
    cpus = sorted(os.sched_getaffinity(0))
    pinned = len(cpus) >= 2
    settings = Settings(args.seconds, bool(args.trace), args.papers, scratch,
                        set(cpus[:-1]) if pinned else None)
    results: list[dict[str, Any]] = []
    try:
        if pinned:
            os.sched_setaffinity(0, {cpus[-1]})
        for seed, workload in plan:
            result = run_workload(workload, seed, settings)
            results.append(result)
            print_result(result)
            if not result["correct"]:
                break
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(scratch, ignore_errors=True)
    correct = all(result["correct"] for result in results)
    if correct:
        tag = "trace" if args.trace else "e2e"
        path = args.out / f"{tag}-seed{args.seed}-{'-'.join(names)}.json"
        path.write_text(json.dumps({
            "argv": sys.argv[1:] if argv is None else argv,
            "results": results,
        }, indent=2), encoding="utf-8")
        print(f"wrote {path}")
    if args.repeat > 1:
        print_spread(results)
    print(json.dumps(summary_line(results)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
