"""Differential session fuzzing across every execution engine.

The PR 2 equivalence suite proved the planner matches the naive oracle on
hand-picked patterns; this harness proves it — plus the incremental
engine and the prefix-reuse cache — on *hundreds of machine-generated
browsing sessions* per dataset. A seeded generator produces random but
valid-by-construction action sequences (params are drawn from the live
schema and the current table state), and every sequence is replayed
step-in-lockstep through four participants:

* ``naive``       — the reference BFS matcher, no cache;
* ``planned``     — the cost-based planner behind a shared
                    ``CachingExecutor`` (prefix reuse accumulates *across*
                    sequences, like the multi-user service);
* ``incremental`` — the action-delta engine (``engine="incremental"``)
                    layered over the shared planned executor: filters
                    become row-selections over the previous relation,
                    pivots one delta join, reverts lineage lookups;
* ``routed``      — not a fourth engine but a *transport*: the same
                    actions driven through a live two-worker
                    :class:`~repro.service.fleet.FleetRouter` (consistent
                    hashing, local sockets, journal-handoff migration),
                    compared against the oracle modulo one JSON wire
                    round trip.

The incremental session also *adopts* its delta-derived relations into
the shared executor's whole-pattern cache, so a wrong delta would poison
the planned sessions of later sequences — the lockstep comparison is
sensitive to that immediately.

Every participant presents the whole table in one run and, in a second,
the same small row window (``WINDOW`` rows, fewer than the toy corpus's
seven papers), which cuts most tables the way the service's 50-row window
does. After every action the harness asserts

1. the ETables are identical cell-for-cell (full protocol
   serialization, hidden columns and reference lists included);
2. the wire protocol is a fixpoint: ``serialize -> deserialize ->
   serialize`` reproduces the exact payload, for the ETable, the session
   history, and every streaming delta frame;
3. the histories stay in lockstep;
4. two *streaming clients* stay in lockstep with the tables: one folds
   every delta frame (diffed from the payloads, as the hub builds it, and
   shipped through the wire round-trip), one is a forced slow consumer
   that only receives coalesced backlog frames every few actions — both
   folded states must equal the full ETable payload cell-for-cell after
   every delivery.

The harness also sums, over every sequence, the actions each incremental
session answered from its previous relation: a classifier that always
fell back to replanning would pass lockstep trivially, so the run fails
unless the delta path was taken.

Failures print the dataset and window, the master seed, the per-sequence
seed, and the full action script as JSON — paste it into
:func:`replay_script` (or re-run with ``REPRO_FUZZ_SEED``) to reproduce.

Env knobs: ``REPRO_FUZZ_SEQUENCES`` (sequences per dataset, default 200),
``REPRO_FUZZ_SEED`` (master seed, default 0), ``REPRO_FUZZ_MAX_ACTIONS``
(actions per sequence, default 5).
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.core.cache import CachingExecutor
from repro.core.engines import ENGINES
from repro.core.etable import ColumnKind
from repro.core.session import EtableSession
from repro.service import protocol
from repro.service.stream import FrameSource, StreamStats, coalesce_frame, fold_frame

SEQUENCES = int(os.environ.get("REPRO_FUZZ_SEQUENCES", "200"))
MASTER_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
MAX_ACTIONS = int(os.environ.get("REPRO_FUZZ_MAX_ACTIONS", "5"))
# The row window of the windowed run.
WINDOW = 3

# The lockstep participants: every registered engine, plus the routed
# transport. Each engine is built by its entry in ``_IN_PROCESS``.
PARTICIPANTS = (*ENGINES, "routed")

_IN_PROCESS = {
    "naive": lambda tgdb, executor, row_limit: EtableSession(
        tgdb.schema, tgdb.graph, row_limit=row_limit, engine="naive"),
    "planned": lambda tgdb, executor, row_limit: EtableSession(
        tgdb.schema, tgdb.graph, row_limit=row_limit, executor=executor),
    # The incremental engine is per-session (its own result lineage) over
    # the *shared* executor, mirroring the multi-user service.
    "incremental": lambda tgdb, executor, row_limit: EtableSession(
        tgdb.schema, tgdb.graph, row_limit=row_limit, engine="incremental",
        executor=executor),
}


# ----------------------------------------------------------------------
# Corpora (small on purpose: breadth over depth — the fuzzer's power is
# the number of sequences, not the corpus size)
# ----------------------------------------------------------------------
def _academic_tgdb():
    from repro.datasets.academic import (
        AcademicConfig,
        default_categorical_attributes,
        default_label_overrides,
        generate_academic,
    )
    from repro.translate import translate_database

    db, _ = generate_academic(AcademicConfig(papers=48, seed=13))
    return translate_database(
        db,
        categorical_attributes=default_categorical_attributes(),
        label_overrides=default_label_overrides(),
    )


def _movies_tgdb():
    from repro.datasets.movies import (
        MoviesConfig,
        generate_movies,
        movies_categorical_attributes,
        movies_label_overrides,
    )
    from repro.translate import translate_database

    db = generate_movies(MoviesConfig(movies=40, people=30, seed=13))
    return translate_database(
        db,
        categorical_attributes=movies_categorical_attributes(),
        label_overrides=movies_label_overrides(),
    )


def _toy_tgdb():
    from repro.datasets.academic import default_label_overrides
    from repro.datasets.toy import generate_toy
    from repro.translate import translate_database

    return translate_database(
        generate_toy(),
        categorical_attributes={"Institutions": ["country"],
                                "Papers": ["year"]},
        label_overrides=default_label_overrides(),
    )


_BUILDERS = {
    "academic": _academic_tgdb,
    "movies": _movies_tgdb,
    "toy": _toy_tgdb,
}


def _start_fleet(dataset, row_limit):
    """A live two-worker fleet over ``dataset``, serving ``row_limit``.

    Workers rebuild the corpus from this very file's builder functions
    (the spec crosses the process boundary as strings, the graph never
    does) and share a throwaway journal directory — sessions created per
    sequence are dropped (journal included) at sequence end.
    """
    import tempfile

    from repro.service.fleet import FleetRouter

    journal_dir = tempfile.mkdtemp(prefix=f"fuzz-fleet-{dataset}-")
    return FleetRouter(
        {
            "factory": f"{os.path.abspath(__file__)}:"
                       f"{_BUILDERS[dataset].__name__}",
            "journal_dir": journal_dir,
            "row_limit": row_limit,
        },
        workers=2,
    )


@pytest.fixture(scope="module")
def fleet(corpus):
    """The routed participant of the unlimited run."""
    router = _start_fleet(corpus[0], None)
    yield router
    router.shutdown()


@pytest.fixture(scope="module")
def windowed_fleet(corpus):
    """The routed participant of the windowed run."""
    router = _start_fleet(corpus[0], WINDOW)
    yield router
    router.shutdown()


@pytest.fixture(scope="module", params=sorted(_BUILDERS))
def corpus(request):
    tgdb = _BUILDERS[request.param]()
    # The shared executor accumulates reuse across sequences, mirroring the
    # multi-user service (one user's prefix is the next one's cache hit).
    return request.param, tgdb, CachingExecutor(tgdb.graph)


# ----------------------------------------------------------------------
# Valid-by-construction action generation
# ----------------------------------------------------------------------
_LIKE_SAFE = set("abcdefghijklmnopqrstuvwxyz"
                 "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ")


def _attribute_pool(graph, type_name, rng):
    """(attribute, value) pairs drawn from live nodes of one type."""
    nodes = graph.nodes_of_type(type_name)
    pool = []
    for node in rng.sample(nodes, min(len(nodes), 8)):
        for attribute, value in node.attributes.items():
            if value is not None:
                pool.append((attribute, value))
    return pool


def _like_pattern(value, rng):
    """A ``%fragment%`` LIKE pattern cut from ``value``'s safe characters."""
    safe = "".join(c for c in value if c in _LIKE_SAFE)
    if len(safe) >= 2:
        start = rng.randrange(0, max(1, len(safe) - 1))
        fragment = safe[start:start + rng.randint(1, 4)]
    else:
        fragment = safe or "%"
    return f"%{fragment}%"


def _condition_json(graph, type_name, rng):
    """A random serialized condition over ``type_name``.

    A comparison, LIKE, IN or label LIKE built from live nodes' values,
    sometimes negated with ``not`` or paired with a second draw under
    ``or``/``and``: the set algebra the engines must agree on.
    """
    roll = rng.random()
    if roll < 0.15:
        operand = _condition_json(graph, type_name, rng)
        return None if operand is None else {"kind": "not", "operand": operand}
    if roll < 0.30:
        operands = [_condition_json(graph, type_name, rng) for _ in range(2)]
        if None in operands:
            return None
        return {"kind": rng.choice(("or", "and")), "operands": operands}
    if roll < 0.40:
        nodes = graph.nodes_of_type(type_name)
        label = rng.choice(nodes).label(graph.schema) if nodes else None
        if label is None:
            return None
        return {"kind": "label_like",
                "pattern": _like_pattern(str(label), rng)}
    pool = _attribute_pool(graph, type_name, rng)
    if not pool:
        return None
    attribute, value = rng.choice(pool)
    if isinstance(value, str):
        kinds = ["=", "!=", "like", "in"]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        kinds = ["=", "!=", "<", "<=", ">", ">=", "in"]
    else:
        kinds = ["=", "!="]
    kind = rng.choice(kinds)
    if kind == "like":
        return {"kind": "like", "attribute": attribute,
                "pattern": _like_pattern(value, rng),
                "negate": rng.random() < 0.2}
    if kind == "in":
        values = [v for a, v in pool if a == attribute][:3]
        return {"kind": "in", "attribute": attribute, "values": values}
    return {"kind": "compare", "attribute": attribute, "op": kind,
            "value": value}


def _reference_columns(etable):
    return [c for c in etable.columns if c.kind is not ColumnKind.BASE]


def _next_action(graph, driver, rng):
    """One random valid action (name, params) given the driver's state."""
    etable = driver.current
    table_names = driver.default_table_list()
    if etable is None:
        return "open", {"type": rng.choice(table_names)}
    choices = ["filter", "sort", "hide", "show", "pivot"]
    ref_columns = _reference_columns(etable)
    rows = etable.rows
    if rows:
        choices += ["single", "seeall", "rank"]
    if driver.history:
        choices += ["revert", "revert"]
    choices += ["open"]
    for _ in range(8):  # a few draws: some actions need state we may lack
        action = rng.choice(choices)
        if action == "open":
            return action, {"type": rng.choice(table_names)}
        if action == "filter":
            condition = _condition_json(
                graph, etable.pattern.primary.type_name, rng
            )
            if condition is not None:
                return action, {"condition": condition}
        if action == "pivot":  # also the draw that can become an nfilter
            if ref_columns:
                column = rng.choice(ref_columns)
                if rng.random() < 0.35 and column.type_name:
                    condition = _condition_json(graph, column.type_name, rng)
                    if condition is not None:
                        neighbor = [
                            c for c in etable.neighbor_columns()
                            if c.key == column.key
                        ]
                        if neighbor:
                            return "nfilter", {"column": column.key,
                                               "condition": condition}
                return action, {"column": column.key}
        if action == "sort":
            return action, {"column": rng.choice(etable.columns).key,
                            "descending": rng.random() < 0.5}
        if action == "hide":
            return action, {"column": rng.choice(etable.columns).key}
        if action == "show":
            return action, {"column": rng.choice(etable.columns).key}
        if action == "single":
            row = rng.choice(rows)
            return action, {"node_id": row.node_id}
        if action == "seeall":
            row_index = rng.randrange(len(rows))
            cells = [
                c for c in ref_columns if rows[row_index].refs(c.key)
            ]
            if cells:
                return action, {"row": row_index,
                                "column": rng.choice(cells).key}
        if action == "rank":
            return action, {"keep": rng.randint(1, 6)}
        if action == "revert":
            return action, {"index": rng.randrange(len(driver.history))}
    return "open", {"type": rng.choice(table_names)}


# ----------------------------------------------------------------------
# Lockstep replay + differential checks
# ----------------------------------------------------------------------
def _etable_payload(session):
    etable = session.current
    if etable is None:
        return None
    return protocol.etable_to_json(etable)


def _wire(obj):
    """What ``obj`` looks like after one JSON wire round trip.

    The routed participant's results crossed a socket, so lockstep
    comparisons against it must normalize the local oracle the same way
    (tuples become lists, non-JSON scalars stringify)."""
    return json.loads(json.dumps(obj, default=str))


class _RoutedSession:
    """One fuzz sequence's session driven through the fleet router."""

    def __init__(self, router):
        self.router = router
        self.session_id = router.create_session()

    def apply(self, action, params):
        return self.router.apply(self.session_id, action, params)

    def etable_payload(self):
        from repro.errors import EtableError

        try:
            return self.apply("etable", {})["etable"]
        except EtableError:
            return None  # no table open yet, like session.current is None

    def history_entries(self):
        return self.apply("history", {})["entries"]

    def close(self):
        self.router.close_session(self.session_id, drop_journal=True)


def _assert_fixpoint(payload, graph, context):
    rebuilt = protocol.etable_from_json(payload, graph)
    again = protocol.etable_to_json(rebuilt)
    assert again == payload, f"{context}: serialize/deserialize not a fixpoint"


def _fail(dataset, seed, script, step, message):
    pytest.fail(
        f"fuzz failure on {dataset!r} at step {step} ({message})\n"
        f"master seed: {MASTER_SEED}, sequence seed: {seed}\n"
        f"replayable action script:\n"
        f"{json.dumps(script, indent=2, default=str)}",
        pytrace=True,
    )


def replay_script(tgdb, script, engine="naive", executor=None,
                  row_limit=None):
    """Re-run one failing action script against a fresh session.

    The debugging entry point the failure message refers to: paste the
    printed JSON and step through the divergence.
    """
    session = EtableSession(tgdb.schema, tgdb.graph, row_limit=row_limit,
                            engine=engine, executor=executor)
    for action, params in script:
        protocol.apply_action(session, action, params)
    return session


class _StreamClients:
    """The fuzz harness's two lockstep SSE consumers for one sequence.

    ``check`` is called after every action with the canonical payload; it
    simulates the server building a frame, ships it through the wire
    round-trip, folds it, and compares. The slow consumer receives only a
    coalesced backlog frame every ``stride`` actions — exactly what a
    backpressured subscriber queue delivers.
    """

    def __init__(self, rng, stats):
        self.source = FrameSource(stats)
        self.stats = stats
        self.folded = None
        self.slow_state = None
        self.pending = 0
        self.stride = rng.randint(2, 4)

    def _round_trip(self, frame, context):
        wire = protocol.frame_to_json(frame)
        rebuilt = protocol.frame_from_json(wire)
        assert protocol.frame_to_json(rebuilt) == wire, (
            f"{context}: delta frame not a serialization fixpoint"
        )
        return rebuilt

    def check(self, action, payload, context):
        """Returns an error message, or None if both clients converged."""
        frame = self._round_trip(
            self.source.frame_for(payload, action=action), context
        )
        self.folded = fold_frame(self.folded, frame)
        if self.folded != payload:
            return f"stream fold diverged after {action}"
        self.pending += 1
        if self.pending >= self.stride:
            merged = self._round_trip(
                coalesce_frame(self.slow_state, payload,
                               seq=self.source.seq, action=action,
                               coalesced=self.pending, stats=self.stats),
                context,
            )
            self.slow_state = fold_frame(self.slow_state, merged)
            self.pending = 0
            if self.slow_state != payload:
                return f"coalesced stream fold diverged after {action}"
        return None


def _run_sequence(dataset, tgdb, executor, seed, stream_stats, router,
                  row_limit):
    rng = random.Random(seed)
    graph = tgdb.graph
    routed = _RoutedSession(router)
    sessions = {engine: make(tgdb, executor, row_limit)
                for engine, make in _IN_PROCESS.items()}
    driver = sessions["naive"]
    streams = _StreamClients(rng, stream_stats)
    script: list = []
    for step in range(rng.randint(2, MAX_ACTIONS)):
        action, params = _next_action(graph, driver, rng)
        script.append((action, params))
        results = {}
        for engine in PARTICIPANTS:
            try:
                if engine == "routed":
                    results[engine] = routed.apply(action, params)
                else:
                    results[engine] = protocol.apply_action(
                        sessions[engine], action, params
                    )
            except Exception as error:  # noqa: BLE001 - reported with script
                _fail(dataset, seed, script, step,
                      f"{engine} raised {type(error).__name__}: {error}")
        # The routed participant's views crossed a JSON socket, so it is
        # compared against the wire-normalized oracle; in-process engines
        # must match the oracle exactly.
        if any(results[engine] != results["naive"] for engine in ENGINES):
            _fail(dataset, seed, script, step, "action results diverged")
        if results["routed"] != _wire(results["naive"]):
            _fail(dataset, seed, script, step, "routed action result diverged")
        payloads = {
            engine: _etable_payload(sessions[engine]) for engine in ENGINES
        }
        if any(payloads[engine] != payloads["naive"] for engine in payloads):
            _fail(dataset, seed, script, step, "ETables diverged")
        if routed.etable_payload() != _wire(payloads["naive"]):
            _fail(dataset, seed, script, step, "routed ETable diverged")
        histories = {
            engine: protocol.history_to_json(sessions[engine].history)
            for engine in ENGINES
        }
        if any(histories[engine] != histories["naive"] for engine in histories):
            _fail(dataset, seed, script, step, "histories diverged")
        if routed.history_entries() != _wire(histories["naive"]):
            _fail(dataset, seed, script, step, "routed history diverged")
        if payloads["naive"] is not None:
            _assert_fixpoint(payloads["naive"], graph,
                             f"{dataset} seed {seed} step {step}")
        stream_error = streams.check(
            action, payloads["naive"], f"{dataset} seed {seed} step {step}"
        )
        if stream_error is not None:
            _fail(dataset, seed, script, step, stream_error)
        # History payloads must round-trip exactly too (the journal's
        # checkpoint records depend on it).
        rebuilt = protocol.history_to_json(
            protocol.history_from_json(histories["naive"])
        )
        assert rebuilt == histories["naive"], (
            f"{dataset} seed {seed} step {step}: history not a fixpoint"
        )
    routed.close()
    return len(script), sessions["incremental"]._executor.stats.delta_actions


def test_every_engine_has_a_participant():
    """A registered engine with no lockstep participant would escape
    differential testing: this fails until ``_IN_PROCESS`` builds it."""
    assert {*_IN_PROCESS, "routed"} == set(PARTICIPANTS)


def test_fuzz_engines_bit_identical(corpus, fleet):
    dataset, tgdb, executor = corpus
    _fuzz(dataset, tgdb, executor, fleet, None)


def test_fuzz_engines_bit_identical_windowed(corpus, windowed_fleet):
    """The same lockstep hunt with every participant, naive and routed
    included, presenting only the first ``WINDOW`` rows of each table."""
    dataset, tgdb, _executor = corpus
    _fuzz(f"{dataset}, row_limit={WINDOW}", tgdb,
          CachingExecutor(tgdb.graph), windowed_fleet, WINDOW)


def _fuzz(dataset, tgdb, executor, fleet, row_limit):
    master = random.Random(MASTER_SEED)
    sequence_seeds = [master.randrange(2**31) for _ in range(SEQUENCES)]
    total_actions = 0
    delta_actions = 0
    stream_stats = StreamStats()
    for seed in sequence_seeds:
        actions, deltas = _run_sequence(dataset, tgdb, executor, seed,
                                        stream_stats, fleet, row_limit)
        total_actions += actions
        delta_actions += deltas
    assert total_actions >= SEQUENCES * 2, "sequences were unexpectedly short"
    # The streaming lockstep clients must have exercised every frame shape:
    # structural snapshots, row-level deltas, and coalesced backlog
    # deliveries — a corpus that never hit one of these proved nothing
    # about it.
    assert stream_stats.snapshots > 0, "no snapshot frame was ever streamed"
    assert stream_stats.deltas > 0, "no delta frame was ever streamed"
    assert stream_stats.coalesce_events > 0, (
        "the slow consumer never received a coalesced frame"
    )
    # The incremental sessions must have really answered actions from the
    # previous relation — a classifier that always falls back would pass
    # lockstep trivially.
    assert delta_actions > 0, "no fuzz action ever took the delta path"
    # The routed transport must have really pushed actions through the
    # fleet's worker processes (not short-circuited in the router).
    fleet_stats = fleet.stats()
    assert fleet_stats["actions"] > 0, "no fuzz action crossed the fleet"
    assert len(fleet_stats["fleet"]["workers"]) == 2, fleet_stats["fleet"]
