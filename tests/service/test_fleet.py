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
import signal
import threading
import time

import pytest

from repro.core.session import EtableSession
from repro.datasets.academic import AcademicConfig, academic_tgdb
from repro.datasets.toy import toy_tgdb
from repro.errors import AuthError, QuotaExceeded, ServiceError, WorkerFailure
from repro.service import AsyncNavigationServer, faults, protocol
from repro.service.fleet import FleetRouter, FleetWorker, HashRing
from repro.service.fleet import router as router_module
from repro.service.fleet.router import _WorkerHandle
from repro.service.fleet.worker import reply_bytes
from repro.service.journal import JOURNAL_SUFFIX

# The spec dict names the worker factory as a "module:callable" string;
# the worker process imports it and builds its own graph.
_FACTORY = "repro.datasets.toy:toy_tgdb"

FILTER = {"condition": {"kind": "compare", "attribute": "year",
                        "op": ">", "value": 2001}}


def build_toy_tgdb_once(marker):
    """Boots one worker: every later call (other workers, boot retries)
    finds ``marker`` and raises ``FileExistsError``."""
    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    return toy_tgdb()


def build_academic_tgdb(papers):
    """The academic corpus (seed 7) that serve.py and the e2e bench host."""
    return academic_tgdb(AcademicConfig(papers=papers, seed=7))


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
    response = router.handle_request(
        protocol.Request(action="create_session")).decoded()
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


class TestFleetShutdown:
    def test_a_stopped_worker_cannot_stall_shutdown(self, tmp_path,
                                                    monkeypatch):
        """A SIGSTOPped worker never answers its stop op and never exits.
        shutdown() waits _CONTROL_REPLY_S for the reply, on the socket the
        stats sweep pooled, and kills the worker at one shared
        _STOP_EXIT_S deadline; the healthy worker still exits cleanly."""
        monkeypatch.setattr(router_module, "_CONTROL_REPLY_S", 0.5)
        monkeypatch.setattr(router_module, "_STOP_EXIT_S", 2.0)
        router = FleetRouter({"factory": _FACTORY,
                              "journal_dir": str(tmp_path / "j")},
                             workers=2, probe_interval=None)
        healthy = router._workers["worker-0"]
        stopped = router._workers["worker-1"]
        try:
            router.stats()  # pools one connection per worker
            assert len(stopped._pool) == 1
            os.kill(stopped.process.pid, signal.SIGSTOP)
            started = time.monotonic()
            router.shutdown()
            elapsed = time.monotonic() - started
        finally:
            if stopped.process.is_alive():
                stopped.process.kill()
                stopped.process.join()
        assert elapsed < 0.5 + 2.0 + 1.0, elapsed
        assert healthy.process.exitcode == 0
        assert stopped.process.exitcode == -signal.SIGKILL

    def test_a_stopped_worker_fails_its_health_ping_fast(self, tmp_path,
                                                         monkeypatch):
        """A SIGSTOPped worker never answers its ping. The sweep waits
        _CONTROL_REPLY_S for it, not the 60 s request budget, and counts
        one failure on that worker's breaker only."""
        monkeypatch.setattr(router_module, "_CONTROL_REPLY_S", 0.5)
        router = FleetRouter({"factory": _FACTORY,
                              "journal_dir": str(tmp_path / "j")},
                             workers=2, probe_interval=None)
        stopped = router._workers["worker-1"]
        try:
            os.kill(stopped.process.pid, signal.SIGSTOP)
            started = time.monotonic()
            router._probe_once()
            elapsed = time.monotonic() - started
            breakers = {name: router._breaker_for(name).stats()
                        for name in ("worker-0", "worker-1")}
        finally:
            stopped.process.kill()
            stopped.process.join()
            router.shutdown()
        assert elapsed < 0.5 + 1.0, elapsed
        assert breakers["worker-1"]["consecutive_failures"] == 1
        assert breakers["worker-0"]["consecutive_failures"] == 0


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


class _StubWorkerSocket:
    """A pooled worker connection that replays scripted reply bytes.

    ``recv`` hands out ``chunks`` in order (never more than asked for),
    then ``b""`` as a closed peer does; ``on_read`` runs after each read.
    """

    def __init__(self, chunks, on_read=None):
        self.chunks = list(chunks)
        self.on_read = on_read
        self.sent = b""
        self.reads = 0
        self.closed = False
        self.timeouts = []

    def settimeout(self, timeout):
        self.timeouts.append(timeout)

    def sendall(self, data):
        self.sent += data

    def recv(self, size):
        self.reads += 1
        chunk = self.chunks.pop(0) if self.chunks else b""
        if len(chunk) > size:
            chunk, rest = chunk[:size], chunk[size:]
            self.chunks.insert(0, rest)
        if self.on_read is not None:
            self.on_read()
        return chunk

    def close(self):
        self.closed = True


def _stub_handle(sock):
    """A router-side worker handle whose pool holds only ``sock``."""
    handle = _WorkerHandle("stub", {}, process=None, port=0)
    handle._release(sock)
    return handle


def _header(length, ok=True, error_type=None):
    return protocol.encode({"ok": ok, "error_type": error_type,
                            "length": length}) + b"\n"


class TestReplyFraming:
    """Worker replies are a header line and then exactly ``length`` bytes
    of envelope; the router reads them without decoding the envelope."""

    def test_framed_reply_is_relayed_undecoded_and_pooled(self):
        framed = reply_bytes(protocol.Response.success({"rows": [[1, [], []]]}))
        body = framed.partition(b"\n")[2]
        sock = _StubWorkerSocket([framed[:len(framed) - 5], framed[-5:]])
        handle = _stub_handle(sock)
        reply = handle.call({"action": "etable"}, timeout=1.0)
        assert reply.ok and reply.error_type is None
        assert reply.encode() == body
        assert reply.decoded().result == {"rows": [[1, [], []]]}
        assert sock.sent == b'{"action":"etable"}\n'
        assert handle._pool == [sock] and not sock.closed
        # A pooled socket waits as long as the call that takes it asks,
        # not as long as the call that opened it did.
        sock.chunks = [framed]
        handle.call({"action": "etable"}, timeout=0.2)
        assert sock.timeouts == [1.0, 0.2]

    def test_failure_header_carries_the_error_type(self):
        failure = protocol.Response.failure(ServiceError("no"))
        sock = _StubWorkerSocket([reply_bytes(failure)])
        reply = _stub_handle(sock).call({"action": "etable"}, timeout=1.0)
        assert not reply.ok and reply.error_type == "service_error"
        assert reply.decoded() == failure

    @pytest.mark.parametrize("chunks", [
        [_header(100) + b"x" * 10],          # short body, then a close
        [b"not json\n{}"],                   # undecodable header
        [b'{"ok":true,"error_type":null}\n{}'],       # no length
        [b'{"ok":"yes","error_type":null,"length":2}\n{}'],
        [_header(2) + b"{}extra"],           # more than the header promised
        [_header(2)[:-1]],                   # torn header, then a close
    ])
    def test_bad_reply_is_a_worker_failure_and_never_pooled(self, chunks):
        sock = _StubWorkerSocket(chunks)
        handle = _stub_handle(sock)
        with pytest.raises(WorkerFailure):
            handle.call({"action": "etable"}, timeout=1.0)
        assert sock.closed and handle._pool == []

    def test_recv_fault_fires_on_a_body_read(self):
        body = protocol.encode({"version": protocol.PROTOCOL_VERSION,
                                "ok": True, "result": {}})

        def arm_after_header():
            faults.arm(faults.FaultInjector.parse("router.recv:raise:1.0"))

        sock = _StubWorkerSocket([_header(len(body)), body],
                                 on_read=arm_after_header)
        handle = _stub_handle(sock)
        try:
            with pytest.raises(WorkerFailure, match="injected fault"):
                handle.call({"action": "etable"}, timeout=1.0)
            # One read returned the header; the armed fault fired before
            # the read of the body.
            assert sock.reads == 1
            assert faults.active().stats() == {"router.recv:raise": 1}
        finally:
            faults.disarm()
        assert sock.closed and handle._pool == []

    def test_routed_page_reaches_the_http_client_undecoded(
            self, tmp_path, monkeypatch):
        """Behind the HTTP frontend, a routed GET .../etable is written as
        the worker encoded it: nothing in this process decodes it."""
        import http.client

        router = FleetRouter({"factory": _FACTORY,
                              "journal_dir": str(tmp_path / "j")},
                             workers=2, probe_interval=None)
        server = AsyncNavigationServer(router, port=0).start()
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=30)
        try:
            def call(method, path, body=None):
                connection.request(
                    method, path,
                    body=None if body is None else json.dumps(body).encode(),
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                return response.status, response.read()

            status, data = call("POST", "/v1/sessions", {})
            sid = json.loads(data)["result"]["session_id"]
            status, _ = call("POST", f"/v1/sessions/{sid}/actions",
                             {"action": "open", "params": {"type": "Papers"}})
            assert status == 200

            decodes = []
            loads = json.loads

            def counting_loads(text, *args, **kwargs):
                # Count envelopes only: a reply header holds no result.
                if '"result"' in str(text):
                    decodes.append(text)
                return loads(text, *args, **kwargs)

            monkeypatch.setattr(json, "loads", counting_loads)
            status, data = call("GET", f"/v1/sessions/{sid}/etable")
            monkeypatch.setattr(json, "loads", loads)
            assert status == 200
            assert decodes == []
            page = json.loads(data)["result"]["etable"]
            assert page == router.apply(sid, "etable", {})["etable"]
            assert page["version"] == protocol.PROTOCOL_VERSION == 2
        finally:
            connection.close()
            server.shutdown()
            router.shutdown()
