"""Fleet failure modes: crash failover, torn handoff, router restart.

The fleet contract under failure is *bit-identical resumption*: every
accepted action is journaled before the reply, so killing a worker and
letting the ring reroute must reproduce the session exactly — history,
ETable cells, and the auth token — on the new owner. These tests inject
the three failures the router is built for (worker crash, torn journal
tail, router restart) plus the quota-migration regression this PR fixes.
"""

import contextlib
import json
import os
import threading
import time

import pytest

from repro.datasets.academic import default_label_overrides
from repro.datasets.toy import generate_toy
from repro.errors import QuotaExceeded, ServiceError
from repro.service import protocol
from repro.service.fleet import (
    FleetRouter,
    FleetWorker,
    HashRing,
    journaled_sessions,
)
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


@contextlib.contextmanager
def _fleet(journal_dir, workers=2, **spec_overrides):
    spec = {
        "factory": _FACTORY,
        "journal_dir": str(journal_dir),
        "stats_path": str(journal_dir / "statistics.json"),
        "engine": "planned",
    }
    spec.update(spec_overrides)
    router = FleetRouter(spec, workers=workers)
    try:
        yield router
    finally:
        router.shutdown()


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
            sid = router.create_session()
            token = router.session_auth_token(sid)
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
            assert router.session_auth_token(sid) == token
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
                request = protocol.Request(action=action, params=params,
                                           session_id="s",
                                           request_id=request_id)
                line = json.dumps(request.to_json()).encode("utf-8")
                return worker._serve_line(line)

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


class TestRouterRestart:
    def test_attach_serves_existing_sessions_over_live_workers(
        self, tmp_path
    ):
        with _fleet(tmp_path / "j", require_auth=True) as router:
            sid = router.create_session()
            token = router.session_auth_token(sid)
            router.apply(sid, "open", {"type": "Papers"}, auth_token=token)
            before = router.apply(sid, "etable", {}, auth_token=token)

            # A restarted front process knows only the endpoints and the
            # journal directory; everything else must be reconstructable.
            attached = FleetRouter.attach(router.endpoints(),
                                          str(tmp_path / "j"))
            try:
                assert attached.worker_names() == router.worker_names()
                assert attached.owner_of(sid) == router.owner_of(sid)
                assert attached.apply(sid, "etable", {},
                                      auth_token=token) == before
                assert attached.session_auth_token(sid) == token
                # Attached routers never spawned the workers, so they
                # must refuse operations that need a Process handle.
                with pytest.raises(ServiceError):
                    attached.kill_worker(attached.worker_names()[0])
                with pytest.raises(ServiceError):
                    attached.restart_worker(attached.worker_names()[0])
            finally:
                attached.detach()  # drops sockets, leaves workers running
            router.apply(sid, "sort", {"column": "year"}, auth_token=token)

    def test_attach_drops_dead_endpoints_and_serves_survivors(
        self, tmp_path
    ):
        """An endpoint map with one dead worker must not poison attach:
        the dead member is dropped from the ring and its sessions are
        served by the survivors via journal handoff."""
        with _fleet(tmp_path / "j") as router:
            sid = router.create_session()
            router.apply(sid, "open", {"type": "Papers"})
            before = router.apply(sid, "etable", {})
            endpoints = router.endpoints()
            router.kill_worker("worker-0")

            attached = FleetRouter.attach(endpoints, str(tmp_path / "j"))
            try:
                assert attached.worker_names() == ["worker-1"]
                # The session resurrects on the survivor, bit-identical.
                assert attached.apply(sid, "etable", {}) == before
            finally:
                attached.detach()

    def test_attach_refuses_an_entirely_dead_endpoint_map(self, tmp_path):
        with _fleet(tmp_path / "j", workers=1) as router:
            endpoints = router.endpoints()
            router.kill_worker("worker-0")
            with pytest.raises(ServiceError):
                FleetRouter.attach(endpoints, str(tmp_path / "j"))

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
    def test_recover_all_resumes_on_ring_owners(self, tmp_path):
        journal_dir = tmp_path / "j"
        with _fleet(journal_dir) as router:
            sids = [router.create_session() for _ in range(3)]
            for sid in sids:
                router.apply(sid, "open", {"type": "Papers"})
        # Fleet shut down; journals survive it.
        assert journaled_sessions(journal_dir) == sorted(sids)
        with _fleet(journal_dir) as router:
            assert sorted(router.recover_all()) == sorted(sids)
            stats = router.stats()
            assert stats["live_sessions"] == 3
            assert stats["resumed"] == 3
            for sid in sids:
                assert router.apply(sid, "history", {})["entries"]

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
