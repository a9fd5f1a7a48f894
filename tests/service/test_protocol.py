"""Wire-protocol round-trip tests (randomized property style).

Every serializer must have an exact inverse: the journal replays what the
protocol wrote, and a restart is only bit-identical if nothing is lost in
translation. The generators below build random conditions, patterns, and
sessions (seeded — failures reproduce) and assert `from_json ∘ to_json`
is the identity.
"""

import random

import pytest

from repro.errors import InvalidAction, ProtocolError
from repro.tgm.conditions import (
    AndCondition,
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    LabelLike,
    NeighborSatisfies,
    NodeIn,
    NodeIs,
    NotCondition,
    OrCondition,
)
from repro.core.session import EtableSession
from repro.service import protocol


def _random_condition(rng: random.Random, depth: int = 0):
    leaves = [
        lambda: AttributeCompare(
            rng.choice(["year", "name", "title"]),
            rng.choice(["=", "!=", "<", "<=", ">", ">="]),
            rng.choice([2005, "SIGMOD", 3.5, True, None]),
        ),
        lambda: AttributeLike(
            rng.choice(["name", "keyword"]),
            rng.choice(["%data%", "A_", "%Univ%"]),
            negate=rng.random() < 0.3,
        ),
        lambda: AttributeIn(
            "year", tuple(rng.sample(range(2000, 2012), rng.randint(1, 3)))
        ),
        lambda: NodeIs(rng.randint(1, 500), label=rng.choice(["", "Bob"])),
        lambda: NodeIn(rng.sample(range(1, 100), rng.randint(1, 5))),
        lambda: LabelLike("%e%"),
    ]
    if depth < 2 and rng.random() < 0.5:
        combiners = [
            lambda: AndCondition(tuple(
                _random_condition(rng, depth + 1)
                for _ in range(rng.randint(2, 3)))),
            lambda: OrCondition(tuple(
                _random_condition(rng, depth + 1)
                for _ in range(rng.randint(2, 3)))),
            lambda: NotCondition(_random_condition(rng, depth + 1)),
            lambda: NeighborSatisfies(
                "Papers->Authors", _random_condition(rng, depth + 1)),
        ]
        return rng.choice(combiners)()
    return rng.choice(leaves)()


class TestConditionRoundTrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_condition_round_trip(self, seed):
        rng = random.Random(seed)
        for _ in range(8):
            condition = _random_condition(rng)
            payload = protocol.condition_to_json(condition)
            assert protocol.condition_from_json(payload) == condition

    def test_cache_tokens_survive_round_trip(self):
        rng = random.Random(1234)
        for _ in range(50):
            condition = _random_condition(rng)
            rebuilt = protocol.condition_from_json(
                protocol.condition_to_json(condition)
            )
            assert rebuilt.cache_token() == condition.cache_token()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.condition_from_json({"kind": "frobnicate"})

    def test_missing_field_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.condition_from_json({"kind": "compare", "op": "="})


# Condition payloads with a field of the wrong type: each must be a typed
# ProtocolError, never a TypeError or ValueError (which drops the HTTP
# connection) and never an accepted filter.
MALFORMED_CONDITIONS = [
    {"kind": "in", "attribute": "year", "values": 5},
    {"kind": "in", "attribute": "year", "values": [[1]]},
    {"kind": "like", "attribute": "title", "pattern": 5},
    {"kind": "like", "attribute": 5, "pattern": "%a%"},
    {"kind": "like", "attribute": "title", "pattern": "%a%",
     "negate": "false"},
    {"kind": "like", "attribute": "title", "pattern": "%a%", "negate": 1},
    {"kind": "label_like", "pattern": 5},
    {"kind": "compare", "attribute": ["year"], "op": "=", "value": 2005},
    {"kind": "compare", "attribute": "year", "op": ["="], "value": 2005},
    {"kind": "node_is", "node_id": "abc"},
    {"kind": "node_is", "node_id": None},
    {"kind": "node_is", "node_id": True},
    {"kind": "node_in", "node_ids": 5},
    {"kind": "node_in", "node_ids": ["x"]},
    {"kind": "and", "operands": 3},
    {"kind": "or", "operands": "ab"},
    {"kind": "neighbor", "edge_type": 5,
     "inner": {"kind": "label_like", "pattern": "%a%"}},
    {"kind": "not", "operand": {"kind": "in", "attribute": "year",
                                "values": 5}},
    {"kind": "compare", "attribute": "title", "op": "=", "value": [1]},
    {"kind": "compare", "attribute": "title", "op": "=", "value": {"a": 1}},
    {"kind": "node_is", "node_id": 1, "label": 5},
]


class TestMalformedConditions:
    @pytest.mark.parametrize("payload", MALFORMED_CONDITIONS)
    def test_rejected_with_a_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            protocol.condition_from_json(payload)

    @pytest.mark.parametrize("payload", MALFORMED_CONDITIONS)
    def test_filter_and_nfilter_reject_it(self, payload, toy):
        session = EtableSession(toy.schema, toy.graph)
        protocol.apply_action(session, "open", {"type": "Papers"})
        with pytest.raises(ProtocolError):
            protocol.apply_action(session, "filter", {"condition": payload})
        with pytest.raises(ProtocolError):
            protocol.apply_action(session, "nfilter", {
                "column": "Papers->Authors", "condition": payload})
        assert len(session.history) == 1


def _random_session(rng: random.Random, tgdb) -> EtableSession:
    """Drive a short random-but-valid action sequence."""
    session = EtableSession(tgdb.schema, tgdb.graph)
    session.open(rng.choice(["Papers", "Authors", "Conferences"]))
    for _ in range(rng.randint(1, 5)):
        etable = session.current
        choice = rng.random()
        ref_columns = [
            c for c in etable.columns
            if c.kind.name != "BASE"
            and any(r.ref_count(c.key) for r in etable.rows)
        ]
        if choice < 0.35 and ref_columns:
            session.pivot(rng.choice(ref_columns))
        elif choice < 0.55 and etable.primary_type == "Papers":
            session.filter_attribute("year", ">", rng.randint(2000, 2010))
        elif choice < 0.7 and etable.base_columns():
            session.sort(rng.choice(etable.base_columns()),
                         descending=rng.random() < 0.5)
        elif choice < 0.85 and etable.base_columns():
            session.hide_column(rng.choice(etable.base_columns()))
        elif session.history:
            session.revert(rng.randrange(len(session.history)))
    return session


class TestPatternAndHistoryRoundTrip:
    @pytest.mark.parametrize("seed", range(12))
    def test_session_pattern_round_trip(self, seed, toy):
        session = _random_session(random.Random(seed), toy)
        pattern = session.current.pattern
        rebuilt = protocol.pattern_from_json(protocol.pattern_to_json(pattern))
        assert rebuilt == pattern

    @pytest.mark.parametrize("seed", range(12))
    def test_session_history_round_trip(self, seed, toy):
        session = _random_session(random.Random(seed), toy)
        payload = protocol.history_to_json(session.history)
        rebuilt = protocol.history_from_json(payload)
        assert rebuilt == session.history

    def test_malformed_pattern_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.pattern_from_json({"nodes": []})


class TestEtableRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_full_serialization_round_trip(self, seed, toy):
        session = _random_session(random.Random(seed), toy)
        etable = session.current
        payload = protocol.etable_to_json(etable)
        rebuilt = protocol.etable_from_json(payload, toy.graph)
        assert rebuilt.pattern == etable.pattern
        assert rebuilt.hidden_columns == etable.hidden_columns
        assert [c.key for c in rebuilt.columns] == [c.key for c in etable.columns]
        assert [c.kind for c in rebuilt.columns] == [c.kind for c in etable.columns]
        assert [r.node_id for r in rebuilt.rows] == [r.node_id for r in etable.rows]
        for mine, theirs in zip(rebuilt.rows, etable.rows):
            assert mine.attributes == theirs.attributes
            assert mine.cells == theirs.cells

    def test_pagination_slices_rows(self, toy):
        session = EtableSession(toy.schema, toy.graph)
        etable = session.open("Papers")
        full = protocol.etable_to_json(etable)
        page = protocol.etable_to_json(etable, offset=2, limit=3)
        assert page["total_rows"] == full["total_rows"] == len(etable)
        assert page["returned"] == 3 and page["offset"] == 2
        assert page["rows"] == full["rows"][2:5]

    def test_max_refs_truncates_but_counts_stay_exact(self, toy):
        session = EtableSession(toy.schema, toy.graph)
        etable = session.open("Conferences")
        payload = protocol.etable_to_json(etable, max_refs=1)
        position = [c["key"] for c in payload["columns"]
                    if c["kind"] != "base"].index("Conferences->Papers")
        papers = [
            row.cells["Conferences->Papers"] for row in etable.rows
        ]
        for serialized, ids in zip(payload["rows"], papers):
            cell = serialized[2][position]
            assert cell[0] == len(ids)
            assert cell[1:] == [
                ids[0], toy.graph.node(ids[0]).label(toy.schema),
            ][:len(cell) - 1]
            assert len(cell) <= 3

    def test_rows_are_positional_with_flat_cells(self, toy):
        """A row is [node_id, base values, cells]; a cell is [count, id,
        label, ...]; a reference's type is stated once, by its column."""
        session = EtableSession(toy.schema, toy.graph)
        etable = session.open("Papers")
        payload = protocol.etable_to_json(etable)
        base = [c for c in payload["columns"] if c["kind"] == "base"]
        references = [c for c in payload["columns"] if c["kind"] != "base"]
        for (node_id, values, cells), row in zip(payload["rows"],
                                                 etable.rows):
            assert node_id == row.node_id
            assert values == [row.attributes[c["key"]] for c in base]
            assert len(cells) == len(references)
            for column, cell in zip(references, cells):
                refs = etable.refs(row, column["key"])
                assert cell[0] == len(refs)
                assert cell[1::2] == [ref.node_id for ref in refs]
                assert cell[2::2] == [ref.label for ref in refs]
                assert {toy.graph.node(ref.node_id).type_name
                        for ref in refs} <= {column["type"]}

    def test_negative_offset_rejected(self, toy):
        session = EtableSession(toy.schema, toy.graph)
        etable = session.open("Papers")
        with pytest.raises(ProtocolError):
            protocol.etable_to_json(etable, offset=-1)


class TestEnvelopes:
    def test_request_round_trip(self):
        request = protocol.Request(action="filter", params={"x": 1},
                                   session_id="s1", request_id="r9")
        assert protocol.Request.from_json(request.to_json()) == request

    def test_response_round_trip(self):
        response = protocol.Response.success({"rows": 3}, session_id="s1")
        assert protocol.Response.from_json(response.to_json()) == response

    def test_failure_carries_error_type(self):
        from repro.errors import UnknownSession

        response = protocol.Response.failure(UnknownSession("gone"))
        assert response.error_type == "unknown_session"
        assert protocol.Response.from_json(response.to_json()) == response

    def test_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.Request.from_json({"action": "open", "version": 999})

    def test_missing_action_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.Request.from_json({"params": {}})

    def test_request_auth_token_round_trip(self):
        request = protocol.Request(action="sort", params={"column": "y"},
                                   session_id="s1", auth_token="tok")
        wire = request.to_json()
        assert wire["auth_token"] == "tok"
        assert protocol.Request.from_json(wire) == request
        # absent when unset, so old clients see unchanged envelopes
        assert "auth_token" not in protocol.Request(action="sort").to_json()

    def test_malformed_request_envelopes_rejected(self):
        for payload in [
            "not a dict",
            ["action", "open"],
            {"action": "open", "version": True},
            {"action": "open", "version": "1"},
            {"action": "open", "version": None},
            {"action": 7},
            {"action": "open", "session_id": 42},
            {"action": "open", "auth_token": 42},
            {"action": "open", "params": "not-a-dict"},
            {"action": "open", "unexpected_key": 1},
        ]:
            with pytest.raises(ProtocolError):
                protocol.Request.from_json(payload)

    def test_malformed_response_envelopes_rejected(self):
        for payload in [
            "not a dict",
            {"ok": True, "version": 999},
            {"ok": "yes", "version": protocol.PROTOCOL_VERSION},
            {"version": protocol.PROTOCOL_VERSION},
            {"ok": False, "version": protocol.PROTOCOL_VERSION},
        ]:
            with pytest.raises(ProtocolError):
                protocol.Response.from_json(payload)

    def test_envelope_rejection_is_a_typed_protocol_error(self, toy):
        """Through the manager, a malformed envelope must come back as a
        failure response whose error_type names protocol_error — never an
        unhandled exception."""
        from repro.service.manager import SessionManager

        manager = SessionManager(toy.schema, toy.graph)
        sid = manager.create_session()
        response = manager.handle_request(protocol.Request.from_json(
            {"action": "open", "params": {"type": "Papers"},
             "session_id": sid}))
        assert response.ok
        with pytest.raises(ProtocolError):
            protocol.Request.from_json(
                {"action": "open", "session_id": sid, "version": 999})


class TestBooleanParams:
    """A boolean param must be a JSON boolean (``bool("false")`` is
    true); a missing one still means false."""

    @staticmethod
    def _papers(toy) -> EtableSession:
        session = EtableSession(toy.schema, toy.graph)
        protocol.apply_action(session, "open", {"type": "Papers"})
        return session

    def test_sort_descending(self, toy):
        session = self._papers(toy)
        with pytest.raises(ProtocolError):
            protocol.apply_action(session, "sort", {"column": "year",
                                                    "descending": "false"})
        assert len(session.history) == 1
        protocol.apply_action(session, "sort", {"column": "year"})
        assert session.history[-1].sort == ("year", False)

    def test_etable_include_history(self, toy):
        session = self._papers(toy)
        with pytest.raises(ProtocolError):
            protocol.apply_action(session, "etable", {"include_history": "0"})
        assert "history" not in protocol.apply_action(session, "etable", {})

    def test_close_session_drop_journal(self, toy, tmp_path):
        from repro.service.manager import SessionManager

        manager = SessionManager(toy.schema, toy.graph, journal_dir=tmp_path)
        sid = manager.create_session()
        response = manager.handle_request(protocol.Request(
            action="close_session", params={"drop_journal": "false"},
            session_id=sid,
        ))
        assert response.error_type == "protocol_error"
        assert (tmp_path / f"{sid}.journal").exists()
        assert manager.session_ids() == [sid]


class TestApplyAction:
    def test_unknown_action_rejected(self, toy):
        session = EtableSession(toy.schema, toy.graph)
        with pytest.raises(ProtocolError):
            protocol.apply_action(session, "frobnicate", {})

    @pytest.mark.parametrize("action, params", [
        ("seeall", {"column": "Papers->Authors"}),
        ("single", {"column": "Papers->Authors", "ref": 1}),
    ])
    def test_row_node_id_addresses_the_row_with_that_node(
        self, toy, action, params
    ):
        sessions = []
        for _ in range(2):
            session = EtableSession(toy.schema, toy.graph)
            protocol.apply_action(session, "open", {"type": "Papers"})
            # Descending by author count: display order is not id order.
            protocol.apply_action(session, "sort", {
                "column": "Papers->Authors", "descending": True})
            sessions.append(session)
        by_index, by_node = sessions
        row = by_index.current.row(0)
        assert row.node_id != min(r.node_id for r in by_index.current.rows)
        protocol.apply_action(by_index, action, dict(params, row=0))
        protocol.apply_action(by_node, action,
                              dict(params, row_node_id=row.node_id))
        assert by_node.history == by_index.history
        assert (protocol.etable_to_json(by_node.current)
                == protocol.etable_to_json(by_index.current))
        with pytest.raises(InvalidAction):
            protocol.apply_action(by_node, action,
                                  dict(params, row_node_id=10 ** 9))

    def test_repl_equivalence(self, toy):
        """The protocol path and the direct session API produce identical
        state for the same logical actions (the REPL relies on this)."""
        direct = EtableSession(toy.schema, toy.graph)
        direct.open("Papers")
        direct.filter_attribute("year", ">", 2005)
        direct.pivot("Papers->Authors")
        direct.revert(1)

        wired = EtableSession(toy.schema, toy.graph)
        protocol.apply_action(wired, "open", {"type": "Papers"})
        protocol.apply_action(wired, "filter", {"condition": {
            "kind": "compare", "attribute": "year", "op": ">", "value": 2005}})
        protocol.apply_action(wired, "pivot", {"column": "Papers->Authors"})
        protocol.apply_action(wired, "revert", {"index": 1})

        assert wired.history == direct.history
        assert (protocol.etable_to_json(wired.current)
                == protocol.etable_to_json(direct.current))
