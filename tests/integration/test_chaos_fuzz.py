"""Chaos-mode differential fuzzing: the fleet under injected faults.

The plain fuzzer (:mod:`test_session_fuzz`) proves the routed transport
matches the naive oracle when nothing fails. This harness proves the
*resilience* machinery preserves that equivalence when things do fail:
a two-worker fleet runs with deterministic fault injection armed on both
sides of the socket —

* ``journal.write:raise:0.05`` inside each worker process (every journal
  append has a 5% chance of an injected ``OSError``; the journal's
  bounded write-retry must absorb it), and
* ``router.recv:raise:0.05`` in the router process (every reply read has
  a 5% chance of failing; the router's retry policy must re-send, and
  the worker's reply cache must make the retry exactly-once)

— while every sequence is replayed in lockstep against an in-process
naive session. The acceptance bar is *zero divergence*: cell-for-cell
identical ETables, identical histories, identical action results (modulo
one JSON wire round trip), across ``REPRO_CHAOS_SEQUENCES`` sequences
(default 50), plus fleet counters proving the failure paths actually ran
(retries > 0, faults fired on both sides).

Only ``raise`` faults are armed here: a ``corrupt``/``truncate`` mangle
that slipped through *should* diverge (that is what the journal CRC
catches at recovery time), so mangle modes are exercised by the journal
unit tests instead.

A deterministic coda opens a circuit breaker on purpose (100% recv
failures), proves fail-fast behavior while it is open, then proves the
half-open probe closes it again once the faults stop.

Env knobs: ``REPRO_CHAOS_SEQUENCES`` (default 50), ``REPRO_CHAOS_SEED``
(default 0).
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time

import pytest

from repro.core.session import EtableSession
from repro.datasets.toy import toy_tgdb
from repro.errors import ServiceError, WorkerFailure
from repro.service import faults, protocol
from repro.service.fleet import FleetRouter
from repro.service.resilience import RetryPolicy

from test_session_fuzz import (  # noqa: E402 - sibling test module
    _etable_payload,
    _next_action,
    _wire,
)

CHAOS_SEQUENCES = int(os.environ.get("REPRO_CHAOS_SEQUENCES", "50"))
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
MAX_ACTIONS = 5

WORKER_FAULTS = "journal.write:raise:0.05"
ROUTER_FAULTS = "router.recv:raise:0.05"
BREAKER_RESET = 0.2


@pytest.fixture(scope="module")
def chaos_fleet():
    """A two-worker toy fleet with faults armed on both socket ends."""
    journal_dir = tempfile.mkdtemp(prefix="chaos-fleet-")
    router = FleetRouter(
        {
            "factory": "repro.datasets.toy:toy_tgdb",
            "journal_dir": journal_dir,
            "faults": WORKER_FAULTS,
            "faults_seed": CHAOS_SEED,
        },
        workers=2,
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.01,
                                 max_delay=0.1, seed=CHAOS_SEED),
        breaker_reset=BREAKER_RESET,
        probe_interval=1.0,
    )
    faults.arm(faults.FaultInjector.parse(ROUTER_FAULTS, seed=CHAOS_SEED))
    try:
        yield router
    finally:
        faults.disarm()
        router.shutdown()


def _fail(seed, script, step, message):
    pytest.fail(
        f"chaos fuzz failure at step {step} ({message})\n"
        f"master seed: {CHAOS_SEED}, sequence seed: {seed}\n"
        f"replayable action script:\n"
        f"{json.dumps(script, indent=2, default=str)}",
        pytrace=True,
    )


def _run_chaos_sequence(tgdb, router, seed):
    rng = random.Random(seed)
    graph = tgdb.graph
    oracle = EtableSession(tgdb.schema, graph, engine="naive")
    session_id = router.create_session()
    script: list = []
    try:
        for step in range(rng.randint(2, MAX_ACTIONS)):
            action, params = _next_action(graph, oracle, rng)
            script.append((action, params))
            try:
                expected = protocol.apply_action(oracle, action, params)
                routed = router.apply(session_id, action, params)
            except Exception as error:  # noqa: BLE001 - reported with script
                _fail(seed, script, step,
                      f"raised {type(error).__name__}: {error}")
            if routed != _wire(expected):
                _fail(seed, script, step, "routed action result diverged")
            expected_payload = _etable_payload(oracle)
            try:
                routed_payload = router.apply(session_id, "etable", {})["etable"]
            except Exception:  # noqa: BLE001 - like session.current is None
                routed_payload = None
            if routed_payload != _wire(expected_payload):
                _fail(seed, script, step, "routed ETable diverged")
            expected_history = protocol.history_to_json(oracle.history)
            routed_history = router.apply(session_id, "history", {})["entries"]
            if routed_history != _wire(expected_history):
                _fail(seed, script, step, "routed history diverged")
    finally:
        router.close_session(session_id, drop_journal=True)
    return len(script)


def test_chaos_fuzz_zero_divergence_under_faults(chaos_fleet):
    tgdb = toy_tgdb()
    master = random.Random(CHAOS_SEED)
    seeds = [master.randrange(2**31) for _ in range(CHAOS_SEQUENCES)]
    total = 0
    for seed in seeds:
        total += _run_chaos_sequence(tgdb, chaos_fleet, seed)
    assert total >= CHAOS_SEQUENCES * 2, "sequences were unexpectedly short"

    # The router-side recv faults must have really fired and really been
    # retried away — a chaos run with zero retries proved nothing.
    injector = faults.active()
    assert injector is not None
    assert injector.stats().get("router.recv:raise", 0) > 0, injector.stats()
    # The per-worker stats calls themselves run under the 5% fault regime
    # (one round trip each, degraded to {"alive": False} on a flake), so
    # retry the sweep until both workers actually answered.
    for _ in range(10):
        stats = chaos_fleet.stats()["fleet"]
        per_worker = stats["per_worker"]
        if all("faults" in worker for worker in per_worker.values()):
            break
    assert stats["retries"] > 0, stats
    # The worker-side journal faults must have fired too (each absorbed
    # by the journal's bounded write retry — divergence would have failed
    # the lockstep above).
    assert any(
        worker.get("faults", {}).get("journal.write:raise", 0) > 0
        for worker in per_worker.values()
    ), per_worker


def test_breaker_opens_under_total_failure_and_recovers(chaos_fleet):
    sid = chaos_fleet.create_session()
    chaos_fleet.apply(sid, "open", {"type": "Papers"})
    baseline = chaos_fleet.apply(sid, "etable", {})

    # 100% recv failure: the owner's breaker must open within two calls
    # (4 attempts each, threshold 5) and then fail fast while open.
    faults.arm(faults.FaultInjector.parse("router.recv:raise:1.0", seed=1))
    try:
        for _ in range(2):
            with pytest.raises(WorkerFailure):
                chaos_fleet.apply(sid, "etable", {})
        with pytest.raises(WorkerFailure, match="circuit is open"):
            chaos_fleet.apply(sid, "etable", {})
    finally:
        # Back to the module's 5% chaos regime for any later test.
        faults.arm(faults.FaultInjector.parse(ROUTER_FAULTS, seed=CHAOS_SEED))

    # Faults gone: after the reset window the half-open probe must close
    # the breaker and the session must answer bit-identically again.
    time.sleep(BREAKER_RESET + 0.1)
    deadline = time.monotonic() + 10.0
    while True:
        try:
            assert chaos_fleet.apply(sid, "etable", {}) == baseline
            break
        except ServiceError:
            # A residual 5% fault can still eat the half-open trial;
            # the breaker re-opens and we wait out another reset window.
            if time.monotonic() > deadline:
                raise
            time.sleep(BREAKER_RESET + 0.05)
    stats = chaos_fleet.stats()["fleet"]
    assert stats["breaker_opens"] >= 1, stats
    assert all(state in ("closed", "half_open")
               for state in stats["breakers"].values()), stats
    chaos_fleet.close_session(sid, drop_journal=True)
