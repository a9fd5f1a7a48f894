"""The engine names, written once.

Every surface that accepts or enumerates engines — session validation,
the service manager, ``examples/serve.py --engine`` and the differential
fuzzer's lockstep table — imports these tuples instead of spelling the
names out. Adding an engine means adding it here (and to
:data:`SERVICE_ENGINES` if the service hosts it), then giving it a
participant in ``tests/integration/test_session_fuzz.py``, whose
coverage test fails until it has one.

* :data:`ENGINES` — every engine a direct ``EtableSession`` runs.
* :data:`SERVICE_ENGINES` — the engines the service hosts. The service
  always routes through a shared caching planner, so ``naive`` (the
  reference matcher) is intentionally absent.
"""

from __future__ import annotations

ENGINES = (
    "naive",
    "planned",
    "incremental",
)

SERVICE_ENGINES = (
    "planned",
    "incremental",
)
