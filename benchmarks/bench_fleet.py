"""Fleet throughput scaling: concurrent sessions over 1/2/4 workers.

The fleet exists to put the ETable service on N cores: the router
consistent-hashes sessions across worker *processes*, so concurrent
clients stop serializing on one interpreter's GIL. This bench drives the
same scripted multi-client workload through fleets of 1, 2, and 4
workers and reports aggregate mutating-actions/second.

Every configuration's final ETable payloads must be identical to the
1-worker fleet's — placement moves sessions between processes, never
changes what they compute. Each client reads its final page as the HTTP
frontend does: the router relays the worker's reply bytes, and the
client decodes them.

The ``>= REPRO_FLEET_MIN_SPEEDUP`` (default 1.5x at 4 workers) floor is
*enforced only when the host actually has >= 4 usable cores*: worker
processes cannot outrun a single-worker fleet on a single-core
container, and a bench that fails for lack of hardware would just get
its floor deleted. The JSON records whether the floor was enforced.

Env knobs: ``REPRO_BENCH_PAPERS`` (corpus size, default 1200),
``REPRO_FLEET_MIN_SPEEDUP`` (floor), ``REPRO_FLEET_ENFORCE=1`` (force
the floor regardless of core count).
"""

import os
import tempfile
import threading
import time

from repro.bench import banner, format_table, report, save_result
from repro.service import protocol
from repro.service.fleet import FleetRouter

PAPERS = int(os.environ.get("REPRO_BENCH_PAPERS", "1200"))
MIN_SPEEDUP = float(os.environ.get("REPRO_FLEET_MIN_SPEEDUP", "1.5"))
FLEET_SIZES = [1, 2, 4]
CLIENTS = 8  # concurrent sessions per round
ROUNDS = 2  # best-of timing per fleet size

# The per-session walk: join-heavy pivots bracketed by cheap column
# flags, matching the interactive mix the service is built for.
SCRIPT = [
    ("open", {"type": "Papers"}),
    ("filter", {"condition": {"kind": "compare", "attribute": "year",
                              "op": ">", "value": 2004}}),
    ("sort", {"column": "year", "descending": True}),
    ("pivot", {"column": "Papers->Authors"}),
    ("sort", {"column": "name"}),
    ("hide", {"column": "name"}),
    ("show", {"column": "name"}),
    ("pivot", {"column": "Authors->Institutions"}),
]

# Workers import this file by path and call this factory; PAPERS is
# re-read from the (inherited) environment, so parent and workers agree.
def build_bench_tgdb():
    from repro.datasets.academic import AcademicConfig, academic_tgdb

    return academic_tgdb(AcademicConfig(papers=PAPERS, seed=7))


def _drive_round(router, tag):
    """CLIENTS concurrent sessions each run SCRIPT; returns (s, tables)."""

    tables: list = [None] * CLIENTS
    errors: list = []

    def one_client(client):
        try:
            session_id = router.create_session(f"bench-{tag}-{client}")
            for action, params in SCRIPT:
                router.apply(session_id, action, params)
            relayed = router.handle_request(protocol.Request(
                action="etable", params={}, session_id=session_id))
            tables[client] = protocol.decode(relayed.encode())["result"]
            router.close_session(session_id, drop_journal=True)
        except Exception as error:  # noqa: BLE001 - re-raised after join
            errors.append(error)

    threads = [threading.Thread(target=one_client, args=(client,))
               for client in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, tables


def test_fleet_worker_scaling():
    factory = f"{os.path.abspath(__file__)}:build_bench_tgdb"
    total_actions = len(SCRIPT) * CLIENTS

    rates: dict[int, float] = {}
    reference_tables = None
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        for workers in FLEET_SIZES:
            journal_dir = os.path.join(tmp, f"fleet-{workers}")
            router = FleetRouter({
                "factory": factory,
                "journal_dir": journal_dir,
            }, workers=workers)
            try:
                # Untimed warm-up round: per-worker caches fill, and the
                # output-identity claim is checked here.
                _, tables = _drive_round(router, f"warm-{workers}")
                if reference_tables is None:
                    reference_tables = tables
                else:
                    assert tables == reference_tables, (
                        f"fleet of {workers} diverged from 1-worker fleet"
                    )
                best = min(
                    _drive_round(router, f"r{round_no}-{workers}")[0]
                    for round_no in range(ROUNDS)
                )
                stats = router.stats()
                assert len(stats["fleet"]["workers"]) == workers
                assert stats["fleet"]["migrations"] == 0
            finally:
                router.shutdown()
            rates[workers] = total_actions / best

    cpu_count = os.cpu_count() or 1
    try:
        usable_cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable_cores = cpu_count
    enforce_floor = (
        os.environ.get("REPRO_FLEET_ENFORCE") == "1" or usable_cores >= 4
    )
    floor_note = (
        "enforced: host has enough cores for 4 workers"
        if enforce_floor
        else f"waived: only {usable_cores} usable core(s); worker "
             f"processes cannot outrun one worker without parallel hardware"
    )
    speedups = {workers: rates[workers] / rates[1] for workers in FLEET_SIZES}

    report(banner(
        f"Fleet scaling: {PAPERS} papers, {CLIENTS} concurrent clients x "
        f"{len(SCRIPT)} actions, {usable_cores} usable core(s)"
    ))
    report(format_table(
        ["fleet size", "actions/s", "speedup vs 1 worker"],
        [
            [f"{workers} worker(s)", f"{rates[workers]:.0f}",
             f"{speedups[workers]:.2f}x"]
            for workers in FLEET_SIZES
        ],
    ))
    report(f"speedup floor ({MIN_SPEEDUP}x at 4 workers): {floor_note}")

    save_result("fleet", {
        "papers": PAPERS,
        "clients": CLIENTS,
        "actions_per_client": len(SCRIPT),
        "cpu_count": cpu_count,
        "usable_cores": usable_cores,
        "actions_per_second": {
            str(workers): round(rate, 1) for workers, rate in rates.items()
        },
        "speedups": {
            str(workers): round(speedup, 2)
            for workers, speedup in speedups.items()
        },
        "min_speedup_required": MIN_SPEEDUP,
        "floor_enforced": enforce_floor,
        "floor_note": floor_note,
        "equivalent_output": True,
    })

    if enforce_floor:
        assert speedups[4] >= MIN_SPEEDUP, (
            f"fleet of 4 only {speedups[4]:.2f}x over one worker "
            f"(required {MIN_SPEEDUP}x)"
        )
