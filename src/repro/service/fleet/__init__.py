"""Multi-process fleet: a router consistent-hashing sessions to workers.

    from repro.service import AsyncNavigationServer
    from repro.service.fleet import FleetRouter

    router = FleetRouter({"factory": "examples/serve.py:build_tgdb",
                          "factory_kwargs": {"dataset": "toy", "papers": 0},
                          "journal_dir": "journals"}, workers=4)
    server = AsyncNavigationServer(router, port=8080).start()  # unchanged

The router duck-types :class:`~repro.service.manager.SessionManager`, so
the HTTP frontend needs no changes; session migration between workers is
journal handoff, and after any move or restart a session resumes on its
ring owner at its first request (see :mod:`repro.service.fleet.router`).
"""

from repro.service.fleet.hashring import HashRing
from repro.service.fleet.router import FleetRouter
from repro.service.fleet.worker import (
    FleetWorker,
    fleet_worker_main,
    resolve_factory,
)

__all__ = [
    "FleetRouter",
    "FleetWorker",
    "HashRing",
    "fleet_worker_main",
    "resolve_factory",
]
