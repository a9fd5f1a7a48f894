"""Canonical engine-name registry (the RPA104 ground truth).

Every place that accepts or enumerates engine names by string literal —
session validation, the REPL, the service manager, the serve CLI, the
differential fuzzer's lockstep list — is marked
``# repro: engine-surface <role>`` and checked against these tuples by
``python -m repro.analysis`` (check RPA104). Adding an engine means
extending the tuple(s) here *and* every surface of the matching role,
or lint fails; nothing imports these tuples on hot paths, they exist so
drift is a lint error instead of a fuzzer escape.

Roles:

* ``all``     — surfaces offering every engine (direct session use).
* ``service`` — surfaces restricted to the shared-cache service engines
  (the service always routes through the caching planner, so ``naive``
  is intentionally absent).
* ``fuzzer``  — the lockstep list; must exercise every registered
  engine. Entries from :data:`FUZZER_TRANSPORTS` are also
  legal there: they are *transports*, not engines — lockstep
  participants that drive a real engine through a different path (the
  fleet router) — and do not count toward engine coverage.
"""

from __future__ import annotations

ENGINES = (  # repro: engine-registry
    "naive",
    "planned",
    "incremental",
)

SERVICE_ENGINES = (  # repro: engine-registry
    "planned",
    "incremental",
)

FUZZER_TRANSPORTS = (  # repro: engine-registry
    "routed",
)
