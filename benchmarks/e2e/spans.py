"""Per-layer spans for the traced run, patched in from benchmark code.

Each span wraps one public function of the service where its caller looks
it up: a function imported by name into another module is patched in that
module, a method on its class. Nothing under ``src/`` changes. A span
records its start on the system-wide monotonic clock (so the benchmark can
keep only spans inside its timed window, across processes), its wall time,
and its self wall and self CPU time (``time.thread_time``), both net of
the spans nested inside it on the same thread. Self wall minus self CPU is
time the layer spent waiting: on the interpreter lock, a mutex, or I/O.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable

# (span, module, attribute): the attribute is a module global or
# "Class.method". Two entries may share a span name.
PATCHES = (
    ("http.route", "repro.service.async_server", "route_request"),
    ("fleet.route", "repro.service.fleet.router", "FleetRouter.handle_request"),
    # DELETE reaches the fleet through close_session, not handle_request;
    # without it fleet.hop_ms would count worker time the router never saw.
    ("fleet.route", "repro.service.fleet.router", "FleetRouter.close_session"),
    ("manager.request", "repro.service.manager", "SessionManager.handle_request"),
    ("manager.apply", "repro.service.manager", "SessionManager.apply"),
    ("protocol.dispatch", "repro.service.protocol", "apply_action"),
    ("protocol.serialize", "repro.service.protocol", "etable_to_json"),
    ("journal.append", "repro.service.journal", "ActionJournal.record_action"),
    ("journal.checkpoint", "repro.service.journal", "ActionJournal.checkpoint"),
    *(("session.action", "repro.core.session", f"EtableSession.{method}")
      for method in ("open", "filter", "filter_by_neighbor", "pivot",
                     "single", "see_all", "sort", "hide_column",
                     "show_column", "revert")),
    ("cache.match", "repro.core.cache", "CachingExecutor.match"),
    ("cache.delta", "repro.core.cache", "IncrementalExecutor.match"),
    ("planner.plan", "repro.core.cache", "build_plan"),
    ("planner.execute", "repro.core.cache", "execute_plan"),
    ("planner.candidates", "repro.core.planner", "candidate_ids"),
    ("planner.reorder", "repro.core.cache", "restore_reference_order"),
    ("planner.delta", "repro.core.planner", "DeltaPlanner.plan"),
    ("planner.delta", "repro.core.planner", "DeltaPlanner.execute"),
    ("transform", "repro.core.cache", "transform"),
    ("stream.payload", "repro.service.stream.hub", "etable_to_json"),
    ("stream.frame", "repro.service.stream.frames", "FrameSource.frame_for"),
)
SPANS = tuple(dict.fromkeys(span for span, _, _ in PATCHES))
# Spans that only the incremental engine reaches; the service default is
# "planned", so they report 0 calls until that default changes.
INCREMENTAL_ONLY = ("cache.delta", "planner.delta")

# One record: (start on the monotonic clock, wall, self wall, self CPU).
Record = tuple[float, float, float, float]


class Tracer:
    """Collects span records in memory; :meth:`dump` writes them out."""

    def __init__(self) -> None:
        self._local = threading.local()
        # list.append is atomic, so threads share these lists lock-free.
        self.records: dict[str, list[Record]] = {span: [] for span in SPANS}

    def wrap(self, span: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        records = self.records[span]
        local = self._local

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0.0, 0.0]  # wall, CPU of nested spans
            stack.append(children)
            start = time.monotonic()
            cpu_start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu_start
                wall = time.monotonic() - start
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                records.append((start, wall, wall - children[0],
                                cpu - children[1]))

        return traced

    def dump(self, directory: str | os.PathLike[str]) -> None:
        path = Path(directory) / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.records), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Patch every span in. All target modules are imported first, so a
    module that imports a function by name binds the original, and each
    import site gets exactly one wrapper."""
    modules = {module: importlib.import_module(module)
               for _, module, _ in PATCHES}
    for span, module, attribute in PATCHES:
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(modules[module], owner_name) if owner_name \
            else modules[module]
        setattr(owner, name, tracer.wrap(span, getattr(owner, name)))


def load(directory: str | os.PathLike[str]) -> dict[str, list[Record]]:
    """Merge the records every traced process dumped into ``directory``."""
    merged: dict[str, list[Record]] = {span: [] for span in SPANS}
    for path in sorted(Path(directory).glob("spans-*.json")):
        for span, rows in json.loads(path.read_text("utf-8")).items():
            merged.setdefault(span, []).extend(tuple(row) for row in rows)
    return merged


def layer_metrics(records: dict[str, list[Record]],
                  window: tuple[float, float], interactions: int,
                  client_request_s: float) -> dict[str, float]:
    """Per-interaction calls, busy (self CPU) and wait (self wall minus
    self CPU) milliseconds of every span started inside ``window``, plus
    the two derived hops: HTTP time outside the route table, and router
    time outside the workers."""
    start, end = window
    metrics: dict[str, float] = {}
    wall: dict[str, float] = {}
    for span in SPANS:
        rows = [row for row in records.get(span, ()) if start <= row[0] <= end]
        self_wall = sum(row[2] for row in rows)
        busy = sum(row[3] for row in rows)
        wall[span] = sum(row[1] for row in rows)
        metrics[f"{span}.calls"] = len(rows) / interactions
        metrics[f"{span}.busy_ms"] = 1000.0 * busy / interactions
        metrics[f"{span}.wait_ms"] = 1000.0 * (self_wall - busy) / interactions
    metrics["http.overhead_ms"] = (
        1000.0 * (client_request_s - wall["http.route"]) / interactions
    )
    metrics["fleet.hop_ms"] = (
        1000.0 * (wall["fleet.route"] - wall["manager.request"]) / interactions
        if wall["fleet.route"] else 0.0
    )
    return metrics
