"""The engine names, written once.

Only a directly built ``EtableSession`` chooses an engine: session
validation and the differential fuzzer's lockstep table import
:data:`ENGINES` instead of spelling the names out. The service, its fleet
workers, ``examples/serve.py`` and the REPL always run ``planned``.
Adding an engine means adding it here, then giving it a participant in
``tests/integration/test_session_fuzz.py``, whose coverage test fails
until it has one.
"""

from __future__ import annotations

ENGINES = (
    "naive",
    "planned",
    "incremental",
)
