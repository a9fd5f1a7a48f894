"""End-to-end HTTP tests: a scripted session over a live localhost server."""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import WorkerFailure
from repro.service import AsyncNavigationServer, protocol
from repro.service.async_server import route_request
from repro.service.manager import SessionManager


@pytest.fixture()
def server(toy, tmp_path):
    manager = SessionManager(toy.schema, toy.graph,
                             journal_dir=tmp_path / "journals")
    server = AsyncNavigationServer(manager, port=0).start()
    yield server
    server.shutdown()
    manager.shutdown()


def _call(server, path, method="GET", body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        server.url + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:  # HTTPError owns the response socket; don't leak it
            return error.code, json.loads(error.read())


def _act(server, session_id, action, params=None):
    return _call(server, f"/v1/sessions/{session_id}/actions", "POST",
                 {"action": action, "params": params or {}})


class TestRoutes:
    def test_healthz(self, server):
        status, body = _call(server, "/healthz")
        assert status == 200 and body["ok"]
        assert body["result"]["status"] == "ok"

    def test_tables(self, server):
        status, body = _call(server, "/v1/tables")
        assert status == 200 and "Papers" in body["result"]["tables"]

    def test_stats(self, server):
        status, body = _call(server, "/v1/stats")
        assert status == 200 and "cache" in body["result"]
        assert body["result"]["stream"]["open_streams"] == 0

    def test_unknown_route_404(self, server):
        assert _call(server, "/nope")[0] == 404
        assert _call(server, "/v1/frobnicate", "POST", {})[0] == 404

    def test_unknown_session_404(self, server):
        status, body = _call(server, "/v1/sessions/ghost/etable")
        assert status == 404
        assert body["error_type"] == "unknown_session"

    def test_delete_unknown_session_keeps_error_type(self, server):
        """Errors raised outside handle_request (the DELETE path) must
        carry the same machine-readable error_type as envelope failures."""
        status, body = _call(server, "/v1/sessions/ghost", "DELETE")
        assert status == 404
        assert body["error_type"] == "unknown_session"

    def test_bad_action_400(self, server):
        _, created = _call(server, "/v1/sessions", "POST", {})
        sid = created["result"]["session_id"]
        status, body = _act(server, sid, "frobnicate")
        assert status == 400 and not body["ok"]
        assert body["error_type"] == "protocol_error"

    def test_non_json_body_400(self, server):
        _, created = _call(server, "/v1/sessions", "POST", {})
        sid = created["result"]["session_id"]
        for path in ("/v1/sessions", f"/v1/sessions/{sid}/actions"):
            request = urllib.request.Request(
                server.url + path, data=b"not json", method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            with excinfo.value as error:  # close the response socket
                assert error.code == 400, path
                body = json.loads(error.read())
            assert body["error_type"] == "protocol_error", path

    def test_malformed_content_length_is_a_typed_400(self, server):
        """Regression: a non-integer Content-Length used to escape as a
        ValueError from int(), surfacing as a 500 instead of the typed
        400 protocol_error every other malformed request gets."""
        import http.client

        for bad in ("banana", "12abc", "-5"):
            connection = http.client.HTTPConnection(server.host, server.port,
                                                    timeout=10)
            try:
                connection.putrequest("POST", "/v1/sessions",
                                      skip_accept_encoding=True)
                connection.putheader("Content-Type", "application/json")
                connection.putheader("Content-Length", bad)
                connection.endheaders()
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 400, bad
                assert response.reason == "Bad Request", bad
                assert body["error_type"] == "protocol_error", bad
            finally:
                connection.close()

    def test_non_integer_etable_params_are_a_typed_400(self, server):
        _, created = _call(server, "/v1/sessions", "POST", {})
        sid = created["result"]["session_id"]
        _act(server, sid, "open", {"type": "Papers"})
        for query in ("limit=abc", "offset=1.5", "max_refs=lots"):
            status, body = _call(server, f"/v1/sessions/{sid}/etable?{query}")
            assert status == 400, query
            assert body["error_type"] == "protocol_error", query
        # Sane values still work on the very same session.
        status, body = _call(server, f"/v1/sessions/{sid}/etable?limit=2")
        assert status == 200
        assert len(body["result"]["etable"]["rows"]) <= 2

    def test_session_id_mismatch_400(self, server):
        _, created = _call(server, "/v1/sessions", "POST", {})
        sid = created["result"]["session_id"]
        status, _ = _call(server, f"/v1/sessions/{sid}/actions", "POST",
                          {"action": "open", "params": {"type": "Papers"},
                           "session_id": "someone-else"})
        assert status == 400

    def test_keepalive_survives_delete_with_body(self, server):
        """Regression: a DELETE carrying a body used to leave unread bytes
        in the keep-alive stream, desyncing the next request."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=10)
        try:
            _, created = _call(server, "/v1/sessions", "POST",
                               {"session_id": "keepalive"})
            body = json.dumps({"why": "some clients send bodies"})
            connection.request("DELETE", "/v1/sessions/keepalive", body=body,
                               headers={"Content-Type": "application/json"})
            first = connection.getresponse()
            assert first.status == 200
            first.read()
            # Same connection must serve a clean second request.
            connection.request("GET", "/healthz")
            second = connection.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["ok"]
        finally:
            connection.close()

    def test_delete_session(self, server):
        _, created = _call(server, "/v1/sessions", "POST", {})
        sid = created["result"]["session_id"]
        status, body = _call(server, f"/v1/sessions/{sid}", "DELETE")
        assert status == 200 and body["result"]["closed"] == sid


class TestScriptedSession:
    def test_full_browsing_session(self, server):
        """Figure 7's incremental query over HTTP: open → filter →
        seeall → pivot, with the table and history fetched per step."""
        status, created = _call(server, "/v1/sessions", "POST",
                                {"session_id": "e2e"})
        assert status == 200
        sid = created["result"]["session_id"]
        assert sid == "e2e"

        status, body = _act(server, sid, "open", {"type": "Conferences"})
        assert status == 200 and body["result"]["primary_type"] == "Conferences"

        status, body = _act(server, sid, "filter", {"condition": {
            "kind": "compare", "attribute": "acronym", "op": "=",
            "value": "SIGMOD"}})
        assert status == 200 and body["result"]["total_rows"] == 1

        status, body = _act(server, sid, "seeall",
                            {"row": 0, "column": "Papers"})
        assert status == 200 and body["result"]["primary_type"] == "Papers"

        status, body = _act(server, sid, "pivot", {"column": "Authors"})
        assert status == 200 and body["result"]["primary_type"] == "Authors"

        status, body = _call(server, f"/v1/sessions/{sid}/history")
        assert status == 200
        lines = body["result"]["lines"]
        assert len(lines) == 4 and lines[0] == "1. Open 'Conferences' table"

        status, body = _call(server, f"/v1/sessions/{sid}/plan")
        assert status == 200 and "cache" in body["result"]["text"]

        status, body = _act(server, sid, "revert", {"index": 0})
        assert status == 200 and body["result"]["primary_type"] == "Conferences"

    def test_etable_pagination(self, server):
        _, created = _call(server, "/v1/sessions", "POST", {})
        sid = created["result"]["session_id"]
        _act(server, sid, "open", {"type": "Papers"})
        status, body = _call(
            server, f"/v1/sessions/{sid}/etable?offset=2&limit=3&max_refs=1"
        )
        assert status == 200
        etable = body["result"]["etable"]
        assert etable["offset"] == 2 and etable["returned"] == 3
        assert etable["total_rows"] == 7
        references = [column for column in etable["columns"]
                      if column["kind"] != "base"]
        for _node_id, _values, cells in etable["rows"]:
            assert len(cells) == len(references)
            for cell in cells:
                # [count, id, label]: one reference at most, count exact.
                assert len(cell) <= 3 and cell[0] >= (len(cell) - 1) // 2

    def test_include_history_flag(self, server):
        _, created = _call(server, "/v1/sessions", "POST", {})
        sid = created["result"]["session_id"]
        _act(server, sid, "open", {"type": "Papers"})
        status, body = _call(
            server, f"/v1/sessions/{sid}/etable?include_history=1"
        )
        assert status == 200 and len(body["result"]["history"]) == 1

    def test_concurrent_http_clients_stay_isolated(self, server):
        import threading

        results = {}

        def drive(user, type_name):
            _, created = _call(server, "/v1/sessions", "POST",
                               {"session_id": f"client-{user}"})
            sid = created["result"]["session_id"]
            for _ in range(3):
                _act(server, sid, "open", {"type": type_name})
            _, body = _call(server, f"/v1/sessions/{sid}/etable")
            results[user] = body["result"]["etable"]["primary_type"]

        threads = [
            threading.Thread(target=drive,
                             args=(user, "Papers" if user % 2 else "Authors"))
            for user in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert results == {
            user: ("Papers" if user % 2 else "Authors") for user in range(6)
        }


class TestAdmissionControl:
    """Load shedding: over-cap requests get a typed 503 + Retry-After."""

    def test_over_cap_requests_shed_with_typed_503(self, toy):
        manager = SessionManager(toy.schema, toy.graph)
        server = AsyncNavigationServer(manager, port=0,
                                       max_inflight=1).start()
        try:
            # Occupy the single slot directly: the next HTTP request must
            # be shed without queueing behind anything.
            assert server.admission.try_acquire()
            request = urllib.request.Request(server.url + "/healthz")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            error = excinfo.value
            with error:
                assert error.code == 503
                assert error.headers["Retry-After"] == "1"
                body = json.loads(error.read())
            assert body["error_type"] == "overloaded"
            server.admission.release()

            status, _body = _call(server, "/healthz")
            assert status == 200
            status, body = _call(server, "/v1/stats")
            assert status == 200
            assert body["result"]["admission"]["shed"] == 1
            assert body["result"]["admission"]["max_inflight"] == 1
        finally:
            server.shutdown()
            manager.shutdown()

    def test_uncapped_by_default(self, server):
        status, body = _call(server, "/v1/stats")
        assert status == 200
        admission = body["result"]["admission"]
        assert admission["max_inflight"] is None
        assert admission["shed"] == 0


class _FailingManager:
    """Answers every request with the envelope a fleet router builds when
    a worker's breaker is open or its retry budget is spent."""

    def handle_request(self, request):
        return protocol.Response.failure(WorkerFailure("no worker answered"))


class TestStatusMapping:
    def test_worker_failure_is_a_retryable_503(self):
        manager = _FailingManager()
        for method, path, body in [
            ("POST", "/v1/sessions/s1/actions",
             {"action": "open", "params": {"type": "Papers"}}),
            ("GET", "/v1/sessions/s1/etable", {}),
            ("GET", "/v1/tables", {}),
            ("POST", "/v1/sessions", {}),
        ]:
            status, response = route_request(manager, method, path, {},
                                             body, None)
            assert response.error_type == "worker_failure", path
            assert status == 503, (method, path)
