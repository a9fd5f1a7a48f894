"""The navigation service's versioned JSON wire protocol.

The paper's ETable prototype is a client–server web application (Sections 6
and 9): the browser sends user actions, the server re-executes the query
pattern and returns the enriched table. This module is that contract, made
explicit and transport-independent:

* :class:`Request` / :class:`Response` — versioned envelope dataclasses;
* serializers for every domain object that crosses the wire — conditions,
  query patterns, history entries, and paginated ETables with their
  entity references — each with an exact inverse (``*_from_json``), so
  the journal, the HTTP frontend, and the REPL's ``export`` command share
  one serialization path;
* :func:`apply_action` — the single dispatch point mapping wire-level
  action names onto :class:`~repro.core.session.EtableSession` methods.

Action names mirror the paper's Figure 9 interface components:

====================  ==================================================
action                Figure 9 / Section 6.1 counterpart
====================  ==================================================
``tables``            component 1, the default table list
``open``              U1 — click a node type
``seeall``            U2 — click a cell's reference-count badge
``filter``            U3 — the column-header filter popup
``nfilter``           U3 on a neighbor column ("translated to subqueries")
``pivot``             U4 — the pivot button of a reference column
``single``            click one entity reference (Figure 2a)
``sort``/``hide``/    the additional presentation actions of Section 6.1
``show``
``rank``              column ranking (Section 9, future work #3)
``revert``            component 4, the history panel's revert
``history``           component 4, the history panel itself
``plan``              the execution plan and cache counters; a
                      multi-node table adds the size of each node's
                      semi-join reduction
``etable``/``export`` component 3, the enriched table (paginated)
====================  ==================================================

All payloads are plain JSON types, so any HTTP client — or a file on disk,
which is exactly what the action journal is — can speak the protocol.
Every wire message, replies and stream frames alike, is encoded once by
:func:`encode` (compact separators, ``default=str``, UTF-8); the journal
keeps its own record encoder.

Version 2 ships an ETable page positionally. ``columns`` states each
column once, its referenced entity ``type`` included, and a row is::

    [node_id, [base values in base-column order], [cell, ...]]

with one cell per reference column, in ``columns`` order, hidden columns
included. A cell is ``[count, id_1, label_1, ..., id_k, label_k]``:
``max_refs`` caps ``k``, while ``count`` stays exact, as the badge of
Figure 1 needs. A reference's type is its column's ``type``. A node that
lacks a declared attribute serializes it as ``null``; no shipped dataset
(toy, movies, academic) has such a node. A flat cell is one list, not a
container per reference, so building a page allocates a few objects per
cell instead of one per reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import InvalidAction, ProtocolError
from repro.tgm.conditions import (
    AndCondition,
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    Condition,
    LabelLike,
    NeighborSatisfies,
    NodeIn,
    NodeIs,
    NotCondition,
    OrCondition,
)
from repro.tgm.instance_graph import InstanceGraph
from repro.core.etable import ColumnKind, ColumnSpec, ETable, ETableRow, EntityRef
from repro.core.query_pattern import PatternEdge, PatternNode, QueryPattern
from repro.core.session import EtableSession, HistoryEntry

PROTOCOL_VERSION = 2


def encode(obj: Any) -> bytes:
    """One wire message as bytes: compact JSON, UTF-8, and ``str`` for
    any value JSON has no type for. Every wire call site encodes here."""
    return json.dumps(obj, separators=(",", ":"), default=str).encode("utf-8")


def decode(data: bytes) -> Any:
    """The inverse of :func:`encode`; bytes that are not UTF-8 JSON raise
    :class:`ProtocolError`."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"message is not JSON: {error}") from None


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def _envelope_version(payload: dict[str, Any], what: str) -> int:
    """Validate an envelope's ``version`` field strictly.

    ``True == 1`` in Python, so a boolean would slip through a plain
    ``!=`` comparison; the isinstance pair rejects it along with strings,
    floats, and anything else JSON can smuggle into the field.
    """
    version = payload.get("version", PROTOCOL_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError(
            f"'version' must be an integer, got {version!r}"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported {what} version {version!r} "
            f"(this server speaks {PROTOCOL_VERSION})"
        )
    return version


def _optional_str(payload: dict[str, Any], name: str) -> str | None:
    value = payload.get(name)
    if value is not None and not isinstance(value, str):
        raise ProtocolError(f"{name!r} must be a string when present")
    return value


_REQUEST_FIELDS = frozenset({
    "version", "action", "params", "session_id", "request_id", "auth_token",
})


@dataclass(frozen=True)
class Request:
    """One wire request: an action name plus JSON params.

    ``auth_token`` carries the per-session bearer token the manager mints
    at ``create_session`` time when it runs with ``require_auth``; the HTTP
    frontend lifts it out of the ``Authorization`` header into this field,
    so the manager's check is transport-independent.
    """

    action: str
    params: dict[str, Any] = field(default_factory=dict)
    session_id: str | None = None
    request_id: str | None = None
    auth_token: str | None = None
    version: int = PROTOCOL_VERSION

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "version": self.version,
            "action": self.action,
            "params": dict(self.params),
        }
        if self.session_id is not None:
            payload["session_id"] = self.session_id
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.auth_token is not None:
            payload["auth_token"] = self.auth_token
        return payload

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "Request":
        if not isinstance(payload, dict):
            raise ProtocolError("request must be a JSON object")
        unknown = set(payload) - _REQUEST_FIELDS
        if unknown:
            raise ProtocolError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        version = _envelope_version(payload, "protocol")
        action = payload.get("action")
        if not isinstance(action, str) or not action:
            raise ProtocolError("request needs a non-empty 'action' string")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be a JSON object")
        return cls(
            action=action,
            params=params,
            session_id=_optional_str(payload, "session_id"),
            request_id=_optional_str(payload, "request_id"),
            auth_token=_optional_str(payload, "auth_token"),
            version=version,
        )


@dataclass(frozen=True)
class Response:
    """One wire response: success with a result, or failure with an error.

    ``error_type`` classifies failures machine-readably (snake-cased from
    the raising :class:`~repro.errors.ReproError` subclass, e.g.
    ``unknown_session``, ``invalid_action``) so transports can map them —
    the HTTP frontend turns ``unknown_session`` into a 404.

    ``wire`` holds the encoded envelope of a *relayed* reply: the fleet
    router hands a worker's reply bytes on without decoding them, so only
    ``ok`` and ``error_type`` (from the reply's header) are set besides
    it. :meth:`encode` returns those bytes as they are; a caller that
    reads the result asks for :meth:`decoded`.
    """

    ok: bool
    result: Any = None
    error: str | None = None
    error_type: str | None = None
    session_id: str | None = None
    request_id: str | None = None
    version: int = PROTOCOL_VERSION
    wire: bytes | None = field(default=None, repr=False, compare=False)

    def encode(self) -> bytes:
        """The envelope's wire bytes, encoded at most once."""
        if self.wire is not None:
            return self.wire
        return encode(self.to_json())

    def decoded(self) -> "Response":
        """This envelope with every field readable: a relayed reply
        decoded from its bytes, any other envelope as it is."""
        if self.wire is None:
            return self
        return Response.from_json(decode(self.wire))

    def to_json(self) -> dict[str, Any]:
        if self.wire is not None:
            return decode(self.wire)
        payload: dict[str, Any] = {"version": self.version, "ok": self.ok}
        if self.ok:
            payload["result"] = self.result
        else:
            payload["error"] = self.error
            if self.error_type is not None:
                payload["error_type"] = self.error_type
        if self.session_id is not None:
            payload["session_id"] = self.session_id
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        return payload

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "Response":
        if not isinstance(payload, dict):
            raise ProtocolError("response must be a JSON object")
        version = _envelope_version(payload, "protocol")
        ok = payload.get("ok")
        if not isinstance(ok, bool):
            raise ProtocolError("response needs a boolean 'ok' field")
        if not ok and not isinstance(payload.get("error"), str):
            raise ProtocolError(
                "a failure response needs an 'error' string"
            )
        return cls(
            ok=ok,
            result=payload.get("result"),
            error=_optional_str(payload, "error"),
            error_type=_optional_str(payload, "error_type"),
            session_id=_optional_str(payload, "session_id"),
            request_id=_optional_str(payload, "request_id"),
            version=version,
            wire=None,  # a decoded envelope keeps no bytes
        )

    @classmethod
    def success(cls, result: Any, request: Request | None = None,
                session_id: str | None = None) -> "Response":
        return cls(
            ok=True,
            result=result,
            session_id=session_id
            or (request.session_id if request else None),
            request_id=request.request_id if request else None,
        )

    @classmethod
    def failure(cls, error: str | Exception,
                request: Request | None = None,
                session_id: str | None = None) -> "Response":
        error_type = None
        if isinstance(error, Exception):
            error_type = _snake_case(type(error).__name__)
        return cls(
            ok=False,
            error=str(error),
            error_type=error_type,
            session_id=session_id
            or (request.session_id if request else None),
            request_id=request.request_id if request else None,
        )


def _snake_case(name: str) -> str:
    out = []
    for index, char in enumerate(name):
        if char.isupper() and index and not name[index - 1].isupper():
            out.append("_")
        out.append(char.lower())
    return "".join(out)


def _error_classes() -> dict[str, type]:
    from repro import errors as errors_module

    return {
        _snake_case(name): obj
        for name, obj in vars(errors_module).items()
        if isinstance(obj, type)
        and issubclass(obj, errors_module.ReproError)
    }


def exception_from_response(response: Response) -> Exception:
    """Rehydrate a failure response into its typed exception.

    The fleet router forwards requests to worker processes over the wire;
    when a worker replies with a failure envelope, the router must raise
    the *same* exception type the worker raised so the frontend keeps mapping
    it to the right HTTP status (``unknown_session`` -> 404, and so on).
    Unknown ``error_type`` values degrade to :class:`ServiceError`.
    """
    from repro.errors import ServiceError

    if response.ok:
        raise ValueError("exception_from_response needs a failure response")
    error_class = _error_classes().get(response.error_type or "")
    if error_class is None:
        error_class = ServiceError
    return error_class(response.error or "unspecified worker failure")


# ----------------------------------------------------------------------
# Fleet worker-control envelopes
# ----------------------------------------------------------------------
# The fleet router and its worker processes share the session wire
# protocol for user traffic; control-plane traffic (ping, stats,
# rebalance, drain, shutdown) rides this second envelope on the same
# socket. The discriminator is the "control" key: a line with it is a
# WorkerControl, any other line is a Request. Replies are ordinary
# Response envelopes. Sessions are never resumed by a control op: a
# session comes back on its owner at its first request.

CONTROL_OPS = (
    "ping",       # liveness + identity
    "stats",      # the worker manager's stats payload
    "rebalance",  # close every session that no longer hashes here
    "drain",      # close all sessions, flush journals (pre-restart)
    "shutdown",   # drain, then exit the worker process
)

_CONTROL_FIELDS = frozenset({"version", "control", "args", "request_id"})


@dataclass(frozen=True)
class WorkerControl:
    """One router->worker control request.

    ``op`` names the operation (one of :data:`CONTROL_OPS`); ``args``
    carries its JSON parameters (ring membership for ``rebalance``).
    These envelopes never leave the loopback sockets between the router
    and its workers — they are not part of the public HTTP surface.
    """

    op: str
    args: dict[str, Any] = field(default_factory=dict)
    request_id: str | None = None
    version: int = PROTOCOL_VERSION

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "version": self.version,
            "control": self.op,
            "args": dict(self.args),
        }
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        return payload

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "WorkerControl":
        if not isinstance(payload, dict):
            raise ProtocolError("control envelope must be a JSON object")
        unknown = set(payload) - _CONTROL_FIELDS
        if unknown:
            raise ProtocolError(
                f"unknown control field(s): {', '.join(sorted(unknown))}"
            )
        version = _envelope_version(payload, "worker-control")
        op = payload.get("control")
        if op not in CONTROL_OPS:
            raise ProtocolError(
                f"unknown control op {op!r}; known: {', '.join(CONTROL_OPS)}"
            )
        args = payload.get("args", {})
        if not isinstance(args, dict):
            raise ProtocolError("control 'args' must be a JSON object")
        return cls(
            op=op,
            args=args,
            request_id=_optional_str(payload, "request_id"),
            version=version,
        )


# ----------------------------------------------------------------------
# Condition serialization
# ----------------------------------------------------------------------
def condition_to_json(condition: Condition) -> dict[str, Any]:
    """Serialize any built-in condition; raises for unknown types."""
    if isinstance(condition, AttributeCompare):
        return {"kind": "compare", "attribute": condition.attribute,
                "op": condition.op, "value": condition.value}
    if isinstance(condition, AttributeLike):
        return {"kind": "like", "attribute": condition.attribute,
                "pattern": condition.pattern, "negate": condition.negate}
    if isinstance(condition, AttributeIn):
        return {"kind": "in", "attribute": condition.attribute,
                "values": list(condition.values)}
    if isinstance(condition, NodeIs):
        return {"kind": "node_is", "node_id": condition.node_id,
                "label": condition.label}
    if isinstance(condition, NodeIn):
        return {"kind": "node_in", "node_ids": sorted(condition.node_ids)}
    if isinstance(condition, LabelLike):
        return {"kind": "label_like", "pattern": condition.pattern}
    if isinstance(condition, NeighborSatisfies):
        return {"kind": "neighbor", "edge_type": condition.edge_type,
                "inner": condition_to_json(condition.inner)}
    if isinstance(condition, AndCondition):
        return {"kind": "and",
                "operands": [condition_to_json(c) for c in condition.operands]}
    if isinstance(condition, OrCondition):
        return {"kind": "or",
                "operands": [condition_to_json(c) for c in condition.operands]}
    if isinstance(condition, NotCondition):
        return {"kind": "not", "operand": condition_to_json(condition.operand)}
    raise ProtocolError(
        f"condition type {type(condition).__name__!r} is not serializable"
    )


_JSON_SCALARS = (str, int, float, bool, type(None))


def _string(payload: dict[str, Any], name: str, kind: str) -> str:
    value = payload[name]
    if not isinstance(value, str):
        raise ProtocolError(
            f"condition of kind {kind!r} needs a string {name!r}, "
            f"got {value!r}"
        )
    return value


def _list(payload: dict[str, Any], name: str, kind: str) -> list:
    value = payload[name]
    if not isinstance(value, list):
        raise ProtocolError(
            f"condition of kind {kind!r} needs a list {name!r}, got {value!r}"
        )
    return value


def bool_param(params: dict[str, Any], name: str) -> bool:
    """A JSON boolean param or condition field; missing means false.

    ``bool("false")`` is true, so a string, a number or anything else
    that is not a JSON boolean is a :class:`ProtocolError` rather than a
    guess."""
    value = params.get(name, False)
    if not isinstance(value, bool):
        raise ProtocolError(
            f"{name!r} must be a JSON boolean, got {value!r}"
        )
    return value


def _scalar(value: Any, kind: str) -> Any:
    if not isinstance(value, _JSON_SCALARS):
        raise ProtocolError(
            f"condition of kind {kind!r} takes JSON scalar values only, "
            f"got {value!r}"
        )
    return value


def _node_id(value: Any, kind: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(
            f"condition of kind {kind!r} needs integer node ids, "
            f"got {value!r}"
        )
    return value


def condition_from_json(payload: dict[str, Any]) -> Condition:
    """The inverse of :func:`condition_to_json`. Any payload it cannot
    turn into a condition, a field of the wrong type included, raises
    :class:`ProtocolError`."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ProtocolError("a condition payload needs a 'kind' field")
    kind = payload["kind"]
    try:
        if kind == "compare":
            return AttributeCompare(_string(payload, "attribute", kind),
                                    _string(payload, "op", kind),
                                    payload["value"])
        if kind == "like":
            return AttributeLike(_string(payload, "attribute", kind),
                                 _string(payload, "pattern", kind),
                                 negate=bool_param(payload, "negate"))
        if kind == "in":
            return AttributeIn(
                _string(payload, "attribute", kind),
                tuple(_scalar(value, kind)
                      for value in _list(payload, "values", kind)),
            )
        if kind == "node_is":
            return NodeIs(_node_id(payload["node_id"], kind),
                          label=payload.get("label", ""))
        if kind == "node_in":
            return NodeIn(_node_id(node_id, kind)
                          for node_id in _list(payload, "node_ids", kind))
        if kind == "label_like":
            return LabelLike(_string(payload, "pattern", kind))
        if kind == "neighbor":
            return NeighborSatisfies(_string(payload, "edge_type", kind),
                                     condition_from_json(payload["inner"]))
        if kind == "and":
            return AndCondition(tuple(
                condition_from_json(c)
                for c in _list(payload, "operands", kind)))
        if kind == "or":
            return OrCondition(tuple(
                condition_from_json(c)
                for c in _list(payload, "operands", kind)))
        if kind == "not":
            return NotCondition(condition_from_json(payload["operand"]))
    except KeyError as error:
        raise ProtocolError(
            f"condition of kind {kind!r} is missing field {error}"
        ) from None
    raise ProtocolError(f"unknown condition kind {kind!r}")


# ----------------------------------------------------------------------
# Pattern / history serialization
# ----------------------------------------------------------------------
def pattern_to_json(pattern: QueryPattern) -> dict[str, Any]:
    return {
        "primary": pattern.primary_key,
        "nodes": [
            {
                "key": node.key,
                "type": node.type_name,
                "conditions": [condition_to_json(c) for c in node.conditions],
            }
            for node in pattern.nodes
        ],
        "edges": [
            {"edge_type": edge.edge_type, "source": edge.source_key,
             "target": edge.target_key}
            for edge in pattern.edges
        ],
    }


def pattern_from_json(payload: dict[str, Any]) -> QueryPattern:
    try:
        nodes = tuple(
            PatternNode(
                key=node["key"],
                type_name=node["type"],
                conditions=tuple(
                    condition_from_json(c) for c in node.get("conditions", ())
                ),
            )
            for node in payload["nodes"]
        )
        edges = tuple(
            PatternEdge(edge_type=edge["edge_type"], source_key=edge["source"],
                        target_key=edge["target"])
            for edge in payload.get("edges", ())
        )
        return QueryPattern(primary_key=payload["primary"], nodes=nodes,
                            edges=edges)
    except (KeyError, TypeError) as error:
        raise ProtocolError(f"malformed pattern payload: {error}") from None


def history_entry_to_json(entry: HistoryEntry) -> dict[str, Any]:
    return {
        "description": entry.description,
        "operators": list(entry.operators),
        "pattern": pattern_to_json(entry.pattern),
        "sort": list(entry.sort) if entry.sort is not None else None,
        "hidden": sorted(entry.hidden),
    }


def history_entry_from_json(payload: dict[str, Any]) -> HistoryEntry:
    sort = payload.get("sort")
    return HistoryEntry(
        description=payload["description"],
        operators=tuple(payload.get("operators", ())),
        pattern=pattern_from_json(payload["pattern"]),
        sort=(sort[0], bool(sort[1])) if sort is not None else None,
        hidden=frozenset(payload.get("hidden", ())),
    )


def history_to_json(entries: list[HistoryEntry]) -> list[dict[str, Any]]:
    return [history_entry_to_json(entry) for entry in entries]


def history_from_json(payload: list[dict[str, Any]]) -> list[HistoryEntry]:
    return [history_entry_from_json(entry) for entry in payload]


# ----------------------------------------------------------------------
# ETable serialization (paginated)
# ----------------------------------------------------------------------
def etable_to_json(
    etable: ETable,
    offset: int = 0,
    limit: int | None = None,
    max_refs: int | None = None,
) -> dict[str, Any]:
    """Serialize an enriched table, paginated over rows.

    ``offset``/``limit`` slice the presented rows (the paper's interface
    paginates; matching is always complete). ``max_refs`` truncates each
    reference cell while keeping its exact count — the reference-count
    badge of Figure 1 stays truthful even when a cell is abbreviated on
    the wire. Rows take the positional version-2 form of the module
    docstring.
    """
    try:
        rows = etable.page_rows(offset, limit)
    except InvalidAction as error:
        raise ProtocolError(str(error)) from None
    columns = etable.columns
    base_keys = [c.key for c in columns if c.kind is ColumnKind.BASE]
    ref_keys = [c.key for c in columns if c.kind is not ColumnKind.BASE]
    out_rows = []
    for row in rows:
        attributes = row.attributes
        cells = []
        for key in ref_keys:
            refs = row.refs(key)
            cell: list[Any] = [len(refs)]
            for ref in refs if max_refs is None else refs[:max_refs]:
                cell.append(ref.node_id)
                cell.append(ref.label)
            cells.append(cell)
        out_rows.append([
            row.node_id, [attributes.get(key) for key in base_keys], cells,
        ])
    return {
        "version": PROTOCOL_VERSION,
        "primary_type": etable.primary_type,
        "pattern": pattern_to_json(etable.pattern),
        "columns": [
            {
                "kind": column.kind.name.lower(),
                "key": column.key,
                "display": column.display,
                "type": column.type_name,
                "hidden": column.key in etable.hidden_columns,
            }
            for column in columns
        ],
        "total_rows": len(etable),
        "offset": offset,
        "returned": len(out_rows),
        "rows": out_rows,
    }


_COLUMN_KINDS = {kind.name.lower(): kind for kind in ColumnKind}


def etable_from_json(payload: dict[str, Any], graph: InstanceGraph) -> ETable:
    """Rebuild an :class:`ETable` from a full (unpaginated, untruncated)
    serialization — the inverse of :func:`etable_to_json`.

    Only the serialized rows are restored; a paginated payload yields a
    partial table (``total_rows`` tells the client what it is missing).
    Each reference gets its column's type.
    """
    pattern = pattern_from_json(payload["pattern"])
    columns = [
        ColumnSpec(
            kind=_COLUMN_KINDS[column["kind"]],
            key=column["key"],
            display=column["display"],
            type_name=column.get("type"),
        )
        for column in payload["columns"]
    ]
    base_keys = [c.key for c in columns if c.kind is ColumnKind.BASE]
    ref_columns = [c for c in columns if c.kind is not ColumnKind.BASE]
    rows = [
        ETableRow(
            node_id=node_id,
            attributes=dict(zip(base_keys, values)),
            cells={
                column.key: [
                    EntityRef(node_id=ref_id, type_name=column.type_name,
                              label=label)
                    for ref_id, label in zip(cell[1::2], cell[2::2])
                ]
                for column, cell in zip(ref_columns, cells)
            },
        )
        for node_id, values, cells in payload["rows"]
    ]
    etable = ETable(pattern, columns, rows, graph)
    etable.hidden_columns = {
        column["key"] for column in payload["columns"] if column["hidden"]
    }
    return etable


# ----------------------------------------------------------------------
# Delta-frame streaming messages
# ----------------------------------------------------------------------
# The SSE stream (`GET /v1/sessions/<id>/stream`) pushes one frame per
# mutating action instead of having clients re-fetch the full page. A
# frame is versioned independently of the request envelope so the stream
# wire format can evolve without breaking request/response clients.

STREAM_VERSION = 2

FRAME_KINDS = ("snapshot", "delta", "closed")


@dataclass(frozen=True)
class DeltaFrame:
    """One ETable stream frame.

    ``kind="snapshot"`` carries the complete unpaginated
    :func:`etable_to_json` payload in ``etable`` (``None`` when the session
    has no open table) and is sent on subscribe, on structural changes
    (new primary type or column set — open / pivot / see-all), and as the
    backpressure fallback when a coalesced delta would outweigh it.

    ``kind="delta"`` carries only what changed: ``removed`` lists dropped
    row node ids, ``rows`` the full serialization of added *and* changed
    rows (in the row form of :func:`etable_to_json`), ``order`` the complete new display order (node ids — tiny, and it
    makes reordering actions like sort free to encode), ``pattern`` the new
    query pattern, and ``columns`` the column specs when a hidden-flag
    toggled. ``pattern``/``columns``/``order`` use ``None`` to mean
    *unchanged from the client's current state* (for ``order``, note
    ``None`` is distinct from ``()`` — an explicitly empty table); fields
    carrying no information (``None`` markers, empty ``removed``/``rows``)
    are omitted from the wire form entirely.

    ``coalesced`` counts the mutating actions folded into this frame: 1 for
    a live frame, >1 when backpressure merged a backlog, 0 for the
    subscribe-time snapshot (no action produced it) — clients can sum it to
    know how many actions their folded state reflects.

    ``kind="closed"`` is the terminal frame: the session was closed or
    evicted server-side and no further frames will arrive. ``action``
    carries the lifecycle event (``"closed"`` or ``"evicted"``);
    ``coalesced`` is 0 (no user action produced it). Folding it is a
    no-op — the client keeps its last state and tears the stream down.
    """

    seq: int
    kind: str
    action: str | None = None
    coalesced: int = 1
    etable: dict[str, Any] | None = None
    pattern: dict[str, Any] | None = None
    columns: tuple[dict[str, Any], ...] | None = None
    removed: tuple[int, ...] = ()
    rows: tuple[list[Any], ...] = ()
    order: tuple[int, ...] | None = ()
    total_rows: int = 0
    version: int = STREAM_VERSION


def frame_to_json(frame: DeltaFrame) -> dict[str, Any]:
    """Serialize a stream frame; exact inverse of :func:`frame_from_json`."""
    payload: dict[str, Any] = {
        "version": frame.version,
        "seq": frame.seq,
        "kind": frame.kind,
        "action": frame.action,
        "coalesced": frame.coalesced,
    }
    if frame.kind == "snapshot":
        payload["etable"] = frame.etable
    elif frame.kind == "delta":
        if frame.pattern is not None:
            payload["pattern"] = frame.pattern
        if frame.columns is not None:
            payload["columns"] = list(frame.columns)
        if frame.removed:
            payload["removed"] = list(frame.removed)
        if frame.rows:
            payload["rows"] = list(frame.rows)
        if frame.order is not None:
            payload["order"] = list(frame.order)
        payload["total_rows"] = frame.total_rows
    return payload


def _frame_int(payload: dict[str, Any], name: str, minimum: int = 0) -> int:
    value = payload.get(name)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ProtocolError(
            f"frame field {name!r} must be an integer >= {minimum}, "
            f"got {value!r}"
        )
    return value


def _frame_ids(payload: dict[str, Any], name: str) -> tuple[int, ...]:
    value = payload.get(name, [])
    if not isinstance(value, list) or any(
        not isinstance(i, int) or isinstance(i, bool) for i in value
    ):
        raise ProtocolError(
            f"frame field {name!r} must be a list of node ids"
        )
    return tuple(value)


def _is_row(row: Any) -> bool:
    """Whether ``row`` has the version-2 row shape folding relies on: a
    three-item list led by an integer node id."""
    return (isinstance(row, list) and len(row) == 3
            and isinstance(row[0], int) and not isinstance(row[0], bool))


def frame_from_json(payload: dict[str, Any]) -> DeltaFrame:
    """Parse and validate a stream frame, rejecting unknown versions and
    malformed envelopes with a typed :class:`ProtocolError`."""
    if not isinstance(payload, dict):
        raise ProtocolError("frame must be a JSON object")
    version = payload.get("version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError(f"frame 'version' must be an integer, got {version!r}")
    if version != STREAM_VERSION:
        raise ProtocolError(
            f"unsupported stream version {version!r} "
            f"(this client speaks {STREAM_VERSION})"
        )
    kind = payload.get("kind")
    if kind not in FRAME_KINDS:
        raise ProtocolError(
            f"unknown frame kind {kind!r}; known: {', '.join(FRAME_KINDS)}"
        )
    action = _optional_str(payload, "action")
    seq = _frame_int(payload, "seq")
    coalesced = _frame_int(payload, "coalesced")
    etable = None
    pattern = None
    columns: tuple[dict[str, Any], ...] | None = None
    removed: tuple[int, ...] = ()
    rows: tuple[list[Any], ...] = ()
    order: tuple[int, ...] = ()
    total_rows = 0
    if kind == "snapshot":
        etable = payload.get("etable")
        if etable is not None and not isinstance(etable, dict):
            raise ProtocolError("snapshot frame 'etable' must be an object")
    elif kind == "delta":
        pattern = payload.get("pattern")
        if pattern is not None and not isinstance(pattern, dict):
            raise ProtocolError("delta frame 'pattern' must be an object")
        raw_columns = payload.get("columns")
        if raw_columns is not None and (
            not isinstance(raw_columns, list)
            or any(not isinstance(c, dict) for c in raw_columns)
        ):
            raise ProtocolError(
                "delta frame 'columns' must be a list of objects"
            )
        raw_rows = payload.get("rows", [])
        if not isinstance(raw_rows, list) or any(
            not _is_row(r) for r in raw_rows
        ):
            raise ProtocolError(
                "delta frame 'rows' must be a list of "
                "[node_id, values, cells] rows"
            )
        columns = tuple(raw_columns) if raw_columns is not None else None
        removed = _frame_ids(payload, "removed")
        rows = tuple(raw_rows)
        # Absent means "order unchanged"; an explicit empty list means an
        # empty table — the two fold differently, so the absence survives.
        order = _frame_ids(payload, "order") if "order" in payload else None
        total_rows = _frame_int(payload, "total_rows")
    return DeltaFrame(
        seq=seq,
        kind=kind,
        action=action,
        coalesced=coalesced,
        etable=etable,
        pattern=pattern,
        columns=columns,
        removed=removed,
        rows=rows,
        order=order,
        total_rows=total_rows,
        version=version,
    )


# ----------------------------------------------------------------------
# Action dispatch
# ----------------------------------------------------------------------
def _table_summary(session: EtableSession) -> dict[str, Any]:
    etable = session.current
    assert etable is not None
    return {
        "primary_type": etable.primary_type,
        "total_rows": len(etable),
        "columns": len(etable.columns),
        "history_length": len(session.history),
    }


def _build_condition(params: dict[str, Any]) -> Condition:
    condition = params.get("condition")
    if condition is None:
        raise ProtocolError("this action needs a 'condition' param")
    return condition_from_json(condition)


def _column_param(params: dict[str, Any], action: str) -> str:
    column = params.get("column")
    if not isinstance(column, str):
        raise ProtocolError(f"{action} needs a 'column' string param")
    return column


def _int_param(params: dict[str, Any], name: str, default: int | None = None,
               minimum: int | None = None) -> int:
    value = params.get(name, default)
    if value is None or isinstance(value, bool):
        raise ProtocolError(f"this action needs an integer {name!r} param")
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            f"param {name!r} must be an integer, got {params[name]!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ProtocolError(f"param {name!r} must be >= {minimum}, got {value}")
    return value


def _act_tables(session: EtableSession, params: dict) -> dict:
    return {"tables": session.default_table_list()}


def _act_open(session: EtableSession, params: dict) -> dict:
    type_name = params.get("type")
    if not isinstance(type_name, str):
        raise ProtocolError("open needs a 'type' string param")
    session.open(type_name)
    return _table_summary(session)


def _act_filter(session: EtableSession, params: dict) -> dict:
    session.filter(_build_condition(params))
    return _table_summary(session)


def _act_nfilter(session: EtableSession, params: dict) -> dict:
    session.filter_by_neighbor(_column_param(params, "nfilter"),
                               _build_condition(params))
    return _table_summary(session)


def _act_pivot(session: EtableSession, params: dict) -> dict:
    session.pivot(_column_param(params, "pivot"))
    return _table_summary(session)


def _resolve_row(session: EtableSession, params: dict) -> ETableRow:
    etable = session.current
    if etable is None:
        raise InvalidAction("no ETable is open; call open() first")
    if "row_node_id" in params:
        return etable.row_for_node(_int_param(params, "row_node_id"))
    if "row" in params:
        return etable.row(_int_param(params, "row"))
    raise ProtocolError("this action needs a 'row' index or 'row_node_id'")


def _act_single(session: EtableSession, params: dict) -> dict:
    if "node_id" in params:
        session.single(_int_param(params, "node_id"))
        return _table_summary(session)
    row = _resolve_row(session, params)
    spec = session.resolve_column(_column_param(params, "single"))
    refs = row.refs(spec.key)
    if not refs:
        raise InvalidAction(f"cell {spec.display!r} is empty")
    index = _int_param(params, "ref", default=0)
    if not 0 <= index < len(refs):
        raise InvalidAction(
            f"reference index {index} out of range (0..{len(refs) - 1})"
        )
    session.single(refs[index])
    return _table_summary(session)


def _act_seeall(session: EtableSession, params: dict) -> dict:
    row = _resolve_row(session, params)
    session.see_all(row, _column_param(params, "seeall"))
    return _table_summary(session)


def _act_sort(session: EtableSession, params: dict) -> dict:
    session.sort(_column_param(params, "sort"),
                 descending=bool_param(params, "descending"))
    return _table_summary(session)


def _act_hide(session: EtableSession, params: dict) -> dict:
    session.hide_column(_column_param(params, "hide"))
    return _table_summary(session)


def _act_show(session: EtableSession, params: dict) -> dict:
    session.show_column(_column_param(params, "show"))
    return _table_summary(session)


def _act_rank(session: EtableSession, params: dict) -> dict:
    from repro.core.column_ranking import select_columns

    etable = session.current
    if etable is None:
        raise InvalidAction("no ETable is open; call open() first")
    keep = _int_param(params, "keep", default=8, minimum=1)
    ranking = select_columns(etable, keep=keep)
    return {
        "ranking": [
            {
                "key": item.column.key,
                "display": item.column.display,
                "score": item.score,
                "explain": item.explain(),
            }
            for item in ranking
        ],
        "kept": keep,
    }


def _act_revert(session: EtableSession, params: dict) -> dict:
    if "index" not in params:
        raise ProtocolError("revert needs an 'index' param (0-based)")
    session.revert(_int_param(params, "index"))
    return _table_summary(session)


def _act_plan(session: EtableSession, params: dict) -> dict:
    return {"text": session.explain_plan()}


def _act_history(session: EtableSession, params: dict) -> dict:
    return {
        "lines": session.history_lines(),
        "entries": history_to_json(session.history),
    }


def _act_etable(session: EtableSession, params: dict) -> dict:
    etable = session.current
    if etable is None:
        raise InvalidAction("no ETable is open; call open() first")
    limit = params.get("limit")
    payload: dict[str, Any] = {
        "etable": etable_to_json(
            etable,
            offset=_int_param(params, "offset", default=0, minimum=0),
            limit=(_int_param(params, "limit", minimum=0)
                   if limit is not None else None),
            max_refs=(_int_param(params, "max_refs", minimum=0)
                      if params.get("max_refs") is not None else None),
        )
    }
    if bool_param(params, "include_history"):
        payload["history"] = history_to_json(session.history)
    return payload


# Action name -> handler. "export" is an alias of "etable": the REPL's
# export command and the HTTP GET both serialize through this one path.
ACTIONS: dict[str, Callable[[EtableSession, dict], dict]] = {
    "tables": _act_tables,
    "open": _act_open,
    "filter": _act_filter,
    "nfilter": _act_nfilter,
    "pivot": _act_pivot,
    "single": _act_single,
    "seeall": _act_seeall,
    "sort": _act_sort,
    "hide": _act_hide,
    "show": _act_show,
    "rank": _act_rank,
    "revert": _act_revert,
    "plan": _act_plan,
    "history": _act_history,
    "etable": _act_etable,
    "export": _act_etable,
}

# Actions that change session state and therefore must be journaled for
# replay. "rank" is included: select_columns hides the losing columns in
# place, and hidden-column state carries forward into later actions.
MUTATING_ACTIONS = frozenset({
    "open", "filter", "nfilter", "pivot", "single", "seeall",
    "sort", "hide", "show", "rank", "revert",
})


def apply_action(session: EtableSession, action: str,
                 params: dict[str, Any] | None = None) -> dict[str, Any]:
    """Apply one wire-level action to a session; returns the result payload.

    Raises :class:`ProtocolError` for malformed requests and lets the
    session's own :class:`~repro.errors.ReproError` subclasses propagate
    for domain failures — callers turn both into failure responses.
    """
    handler = ACTIONS.get(action)
    if handler is None:
        raise ProtocolError(
            f"unknown action {action!r}; known: {', '.join(sorted(ACTIONS))}"
        )
    return handler(session, params or {})
