"""Fleet failure modes: crash failover, torn handoff, fleet restarts.

The fleet contract under failure is *bit-identical resumption*: every
accepted action is journaled before the reply, so killing a worker and
letting the ring reroute must reproduce the session exactly — history,
ETable cells, and the auth token — on the new owner. These tests inject
the failures the router is built for (worker crash, torn journal tail, a
rolling restart, a restart of the whole fleet, a worker that never
boots) and check that a session only ever comes back lazily, on its
first request.
"""

import contextlib
import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.core.session import EtableSession
from repro.datasets.academic import (
    AcademicConfig,
    default_categorical_attributes,
    default_label_overrides,
    generate_academic,
)
from repro.datasets.toy import generate_toy
from repro.errors import AuthError, QuotaExceeded, ServiceError
from repro.service import protocol
from repro.service.fleet import FleetRouter, FleetWorker, HashRing
from repro.service.journal import JOURNAL_SUFFIX
from repro.translate import translate_database

# The worker factory must be importable by path inside the worker
# process; the spec dict carries this "file.py:callable" string.
_FACTORY = f"{os.path.abspath(__file__)}:build_toy_tgdb"

FILTER = {"condition": {"kind": "compare", "attribute": "year",
                        "op": ">", "value": 2001}}


def build_toy_tgdb():
    return translate_database(
        generate_toy(),
        categorical_attributes={"Institutions": ["country"],
                                "Papers": ["year"]},
        label_overrides=default_label_overrides(),
    )


def build_toy_tgdb_once(marker):
    """Boots one worker: every later call (other workers, boot retries)
    finds ``marker`` and raises ``FileExistsError``."""
    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    return build_toy_tgdb()


def build_academic_tgdb(papers):
    """The academic corpus (seed 7) that serve.py and the e2e bench host."""
    db, _report = generate_academic(AcademicConfig(papers=papers, seed=7))
    return translate_database(
        db,
        categorical_attributes=default_categorical_attributes(),
        label_overrides=default_label_overrides(),
    )


@contextlib.contextmanager
def _fleet(journal_dir, workers=2, **spec_overrides):
    spec = {
        "factory": _FACTORY,
        "journal_dir": str(journal_dir),
    }
    spec.update(spec_overrides)
    router = FleetRouter(spec, workers=workers)
    try:
        yield router
    finally:
        router.shutdown()


def _create(router):
    """A new session's id and bearer token, as a client receives them."""
    response = router.handle_request(protocol.Request(action="create_session"))
    assert response.ok, response
    return response.result["session_id"], response.result.get("auth_token")


def _serve(worker, action, params, request_id=None):
    """One user request for session "s", through the worker's line path."""
    request = protocol.Request(action=action, params=params, session_id="s",
                               request_id=request_id)
    return worker._serve_line(json.dumps(request.to_json()).encode("utf-8"))


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        members = ("worker-0", "worker-1", "worker-2")
        first, second = HashRing(members), HashRing(tuple(reversed(members)))
        keys = [f"session-{i}" for i in range(200)]
        assert [first.owner(k) for k in keys] == [second.owner(k)
                                                 for k in keys]
        # Every member owns something at this key count.
        assert {first.owner(k) for k in keys} == set(members)

    def test_membership_change_moves_only_the_affected_keys(self):
        keys = [f"session-{i}" for i in range(300)]
        small = HashRing(("worker-0", "worker-1"))
        grown = HashRing(("worker-0", "worker-1", "worker-2"))
        moved = [k for k in keys if small.owner(k) != grown.owner(k)]
        assert moved  # the new member took a share...
        # ...and every moved key went *to* the new member — nothing
        # shuffled between the survivors (the consistent-hash property
        # migration cost depends on).
        assert all(grown.owner(k) == "worker-2" for k in moved)
        assert len(moved) < len(keys)

    def test_remove_reroutes_to_survivors(self):
        ring = HashRing(("worker-0", "worker-1"))
        ring.remove("worker-0")
        assert all(ring.owner(f"s{i}") == "worker-1" for i in range(50))
        assert "worker-0" not in ring

    def test_empty_ring_refuses_placement(self):
        with pytest.raises(ServiceError):
            HashRing().owner("anything")


class TestCrashFailover:
    def test_kill_worker_mid_session_resumes_bit_identical(self, tmp_path):
        with _fleet(tmp_path / "j", require_auth=True) as router:
            sid, token = _create(router)
            router.apply(sid, "open", {"type": "Papers"}, auth_token=token)
            router.apply(sid, "filter", FILTER, auth_token=token)
            router.apply(sid, "sort", {"column": "year", "descending": True},
                         auth_token=token)
            before_table = router.apply(sid, "etable", {}, auth_token=token)
            before_history = router.apply(sid, "history", {},
                                          auth_token=token)
            owner = router.owner_of(sid)

            router.kill_worker(owner)

            after_table = router.apply(sid, "etable", {}, auth_token=token)
            after_history = router.apply(sid, "history", {},
                                         auth_token=token)
            assert after_table == before_table
            assert after_history == before_history
            # The original token opened the resumed session above; a
            # wrong one is refused.
            with pytest.raises(AuthError):
                router.apply(sid, "history", {}, auth_token=token + "0")
            assert router.owner_of(sid) != owner
            stats = router.stats()
            assert stats["fleet"]["migrations"] == 1
            assert owner not in stats["fleet"]["workers"]
            # The resumed session stays live: a fresh action still works.
            router.apply(sid, "sort", {"column": "year"}, auth_token=token)

    def test_torn_handoff_replays_to_last_durable_record(self, tmp_path):
        """A journal whose tail record was torn off (the crash window
        between fsyncs) must replay to the state as of the last *durable*
        action — converged, not corrupted."""
        journal_dir = tmp_path / "j"
        with _fleet(journal_dir) as router:
            sid = router.create_session()
            router.apply(sid, "open", {"type": "Papers"})
            router.apply(sid, "filter", FILTER)
            durable_table = router.apply(sid, "etable", {})
            durable_history = router.apply(sid, "history", {})
            router.apply(sid, "sort", {"column": "year"})

            router.kill_worker(router.owner_of(sid))
            journal_path = journal_dir / f"{sid}{JOURNAL_SUFFIX}"
            lines = journal_path.read_bytes().splitlines(keepends=True)
            assert json.loads(lines[-1])["action"] == "sort"
            journal_path.write_bytes(b"".join(lines[:-1]))  # tear the tail

            assert router.apply(sid, "etable", {}) == durable_table
            assert router.apply(sid, "history", {}) == durable_history

    def test_last_worker_death_is_a_hard_failure(self, tmp_path):
        with _fleet(tmp_path / "j", workers=1) as router:
            sid = router.create_session()
            router.apply(sid, "open", {"type": "Papers"})
            router.kill_worker("worker-0")
            with pytest.raises(ServiceError):
                router.apply(sid, "etable", {})


class TestWorkerDedup:
    def test_retry_during_apply_replays_the_original_reply(self, tmp_path):
        """A retry that reaches the worker while its original is still
        applying (the router gave up on the reply early) must replay the
        original's reply, not apply the action a second time."""
        worker = FleetWorker({"name": "worker-0", "factory": _FACTORY,
                              "journal_dir": str(tmp_path / "j")})
        try:
            def serve(action, params, request_id=None):
                return _serve(worker, action, params, request_id)

            serve("create_session", {"session_id": "s"})
            serve("open", {"type": "Authors"})

            handle = worker.manager.handle_request
            applying, release = threading.Event(), threading.Event()
            applied = []

            def slow_handle(request):
                applied.append(request.action)
                applying.set()
                release.wait(5)
                return handle(request)

            worker.manager.handle_request = slow_handle
            replies = {}

            def deliver(name):
                replies[name] = serve(
                    "pivot", {"column": "Authors->Institutions"}, "r-1"
                )

            original = threading.Thread(target=deliver, args=("original",))
            retry = threading.Thread(target=deliver, args=("retry",))
            original.start()
            assert applying.wait(5)
            retry.start()
            time.sleep(0.05)  # let the retry reach the worker
            release.set()
            original.join(5)
            retry.join(5)

            assert applied == ["pivot"]
            assert replies["original"].ok
            assert replies["retry"] == replies["original"]
            assert worker.dedup_hits == 1
        finally:
            worker._server.close()
            worker.manager.shutdown()

    def test_only_state_changing_replies_are_cached(self, tmp_path):
        """Reads and control ops run again on a retry, so their replies
        (an ETable page can weigh hundreds of KiB) are never kept."""
        worker = FleetWorker({"name": "worker-0", "factory": _FACTORY,
                              "journal_dir": str(tmp_path / "j")})
        try:
            assert _serve(worker, "create_session", {"session_id": "s"}).ok
            assert _serve(worker, "open", {"type": "Papers"}).ok
            for index, action in enumerate(
                    ("etable", "history", "plan", "tables", "stats")):
                assert _serve(worker, action, {}, f"r-read-{index}").ok
            ping = protocol.WorkerControl(op="ping", request_id="r-ping")
            assert worker._serve_line(
                json.dumps(ping.to_json()).encode("utf-8")
            ).ok
            assert worker._dedup == {}

            assert _serve(worker, "filter", FILTER, "r-filter").ok
            assert _serve(worker, "close_session", {}, "r-close").ok
            assert list(worker._dedup) == ["r-filter", "r-close"]
            assert worker._inflight == {}
        finally:
            worker._server.close()
            worker.manager.shutdown()


class TestWorkerStatistics:
    def test_stale_statistics_file_cannot_reorder_cells(self, tmp_path):
        """A worker computes planner statistics from its own graph. A
        statistics.json left in its journal directory by a run over a
        smaller corpus, named by the spec's ``stats_path`` as the e2e
        bench's server spec still does, must not shrink the
        reference-order radix (``max_degree + 1``) and reorder cells."""
        journal_dir = tmp_path / "j"
        journal_dir.mkdir()
        small = build_academic_tgdb(20).graph.statistics()
        (journal_dir / "statistics.json").write_text(json.dumps({
            "type_cardinalities": small.type_cardinalities,
            "edge_stats": {
                name: {"pairs": stats.pairs, "sources": stats.sources,
                       "max_degree": stats.max_degree,
                       "histogram": {str(degree): count for degree, count
                                     in stats.histogram.items()}}
                for name, stats in small.edge_stats.items()
            },
            "distinct_counts": [],
        }))
        worker = FleetWorker({
            "name": "worker-0",
            "factory": f"{os.path.abspath(__file__)}:build_academic_tgdb",
            "factory_kwargs": {"papers": 300},
            "journal_dir": str(journal_dir),
            "stats_path": str(journal_dir / "statistics.json"),
            "row_limit": 50,
        })
        oracle = build_academic_tgdb(300)
        naive = EtableSession(oracle.schema, oracle.graph, row_limit=50,
                              engine="naive")
        try:
            assert _serve(worker, "create_session", {"session_id": "s"}).ok
            for action, params in (
                ("open", {"type": "Papers"}),
                ("pivot", {"column": "Papers->Authors"}),
                ("pivot", {"column": "Authors->Institutions"}),
            ):
                assert _serve(worker, action, params).ok
                protocol.apply_action(naive, action, params)
            served = _serve(worker, "etable", {})
            assert served.result == protocol.apply_action(naive, "etable", {})
        finally:
            worker._server.close()
            worker.manager.shutdown()


class TestFleetBoot:
    def test_failed_boot_stops_the_workers_it_started(self, tmp_path):
        """worker-0 boots, worker-1 fails all its boot attempts: the
        ServiceError must not strand worker-0 (a port plus a manager over
        the shared journals)."""
        before = {child.pid for child in multiprocessing.active_children()}
        spec = {
            "factory": f"{os.path.abspath(__file__)}:build_toy_tgdb_once",
            "factory_kwargs": {"marker": str(tmp_path / "booted")},
            "journal_dir": str(tmp_path / "j"),
        }
        with pytest.raises(ServiceError, match="worker-1"):
            FleetRouter(spec, workers=2)
        leaked = [child.name for child in multiprocessing.active_children()
                  if child.pid not in before]
        assert leaked == []


class TestRouterRestart:
    def test_rolling_restart_keeps_sessions_and_quota(self, tmp_path):
        """Satellite regression: quota state must ride the journal through
        drain/resurrect — a throttled session stays throttled after every
        worker has been replaced."""
        with _fleet(tmp_path / "j", quota_actions=3,
                    quota_window=3600.0) as router:
            sid = router.create_session()
            router.apply(sid, "open", {"type": "Papers"})
            router.apply(sid, "filter", FILTER)
            router.apply(sid, "sort", {"column": "year"})
            with pytest.raises(QuotaExceeded):
                router.apply(sid, "hide", {"column": "title"})
            before = router.apply(sid, "etable", {})  # reads stay free

            router.rolling_restart()

            assert router.stats()["fleet"]["worker_restarts"] == 2
            with pytest.raises(QuotaExceeded):
                router.apply(sid, "hide", {"column": "title"})
            assert router.apply(sid, "etable", {}) == before


class TestFleetSurface:
    def test_fleet_restart_resumes_each_session_on_first_request(
        self, tmp_path
    ):
        journal_dir = tmp_path / "j"
        with _fleet(journal_dir) as router:
            sids = [router.create_session() for _ in range(3)]
            before = {}
            for sid in sids:
                router.apply(sid, "open", {"type": "Papers"})
                before[sid] = router.apply(sid, "etable",
                                           {"include_history": True})
        # Fleet shut down; journals survive it. The new fleet replays
        # nothing at boot: each session comes back on its ring owner at
        # its first request.
        with _fleet(journal_dir) as router:
            for live, sid in enumerate(sids):
                assert router.stats()["live_sessions"] == live
                assert router.apply(sid, "etable",
                                    {"include_history": True}) == before[sid]
            stats = router.stats()
            assert stats["live_sessions"] == 3
            assert stats["resumed"] == 3

    def test_stats_aggregates_and_names_workers(self, tmp_path):
        with _fleet(tmp_path / "j") as router:
            sid = router.create_session()
            router.apply(sid, "open", {"type": "Papers"})
            stats = router.stats()
            assert stats["fleet"]["workers"] == ["worker-0", "worker-1"]
            assert stats["live_sessions"] == 1
            assert stats["actions"] >= 1
            assert set(stats["fleet"]["per_worker"]) == {"worker-0",
                                                         "worker-1"}

    def test_streaming_is_explicitly_unsupported(self, tmp_path):
        with _fleet(tmp_path / "j") as router:
            sid = router.create_session()
            with pytest.raises(ServiceError, match="restore"):
                router.with_session(sid, lambda s: s)

    def test_fleet_requires_a_journal_dir(self):
        with pytest.raises(ServiceError, match="journal_dir"):
            FleetRouter({"factory": _FACTORY, "journal_dir": ""}, workers=1)
