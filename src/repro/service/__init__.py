"""Multi-user navigation service over the ETable core (Sections 6, 8, 9).

The reproduction's client–server layer: many concurrent
:class:`~repro.core.session.EtableSession` s hosted over one shared graph
and one shared plan-and-reuse cache, a versioned JSON wire protocol, a
durable per-session action journal (an evicted or restarted session is
replayed from it on its first request), and a stdlib asyncio HTTP
frontend that answers requests and streams ETable delta frames to
subscribed clients over SSE.

    from repro.service import AsyncNavigationServer, SessionManager

    manager = SessionManager(schema, graph, journal_dir="journals")
    server = AsyncNavigationServer(manager, port=8080).start()
"""

from repro.service import faults
from repro.service.async_server import AsyncNavigationServer
from repro.service.faults import FaultInjector, FaultRule, InjectedFault
from repro.service.fleet import FleetRouter, FleetWorker, HashRing
from repro.service.journal import ActionJournal, read_records
from repro.service.manager import ManagedSession, SessionManager
from repro.service.resilience import (
    AdmissionControl,
    CircuitBreaker,
    HealthProbe,
    RetryPolicy,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    STREAM_VERSION,
    DeltaFrame,
    Request,
    Response,
    WorkerControl,
    apply_action,
    exception_from_response,
    condition_from_json,
    condition_to_json,
    etable_from_json,
    etable_to_json,
    frame_from_json,
    frame_to_json,
    history_from_json,
    history_to_json,
    pattern_from_json,
    pattern_to_json,
)
from repro.service.stream import (
    FrameSource,
    StreamHub,
    StreamStats,
    build_frame,
    coalesce_frame,
    fold_frame,
    payload_bytes,
)

__all__ = [
    "ActionJournal",
    "AdmissionControl",
    "AsyncNavigationServer",
    "CircuitBreaker",
    "DeltaFrame",
    "FaultInjector",
    "FaultRule",
    "FleetRouter",
    "FleetWorker",
    "FrameSource",
    "HashRing",
    "HealthProbe",
    "InjectedFault",
    "ManagedSession",
    "PROTOCOL_VERSION",
    "Request",
    "Response",
    "RetryPolicy",
    "STREAM_VERSION",
    "SessionManager",
    "StreamHub",
    "StreamStats",
    "WorkerControl",
    "apply_action",
    "faults",
    "exception_from_response",
    "build_frame",
    "coalesce_frame",
    "condition_from_json",
    "condition_to_json",
    "etable_from_json",
    "etable_to_json",
    "fold_frame",
    "frame_from_json",
    "frame_to_json",
    "history_from_json",
    "history_to_json",
    "pattern_from_json",
    "pattern_to_json",
    "payload_bytes",
    "read_records",
]
