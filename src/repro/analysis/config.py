"""Shared configuration for the invariant checks.

Markers are plain comments, so annotating code costs nothing at runtime;
this module is the single place their spellings live, for both the
checks and the docs.
"""

from __future__ import annotations

# --- RPA101 lock discipline -------------------------------------------
#: On an attribute assignment in ``__init__``:
#: ``self._sessions = {}  # guarded-by: self._lock``
GUARDED_BY_MARKER = "guarded-by:"
#: On a ``def`` line (or the line above): the caller holds the lock.
REQUIRES_LOCK_MARKER = "requires-lock"
#: Methods where unguarded access is allowed: construction happens
#: before the object is shared, and teardown after.
LOCK_EXEMPT_METHODS = frozenset({"__init__", "__del__", "__repr__"})

# --- RPA103 protocol coverage -----------------------------------------
#: Only files whose name matches participate (serializer modules).
PROTOCOL_FILE_NAMES = frozenset({"protocol.py"})
#: ``X_to_json`` / ``X_from_json`` function-name suffixes.
TO_SUFFIX = "_to_json"
FROM_SUFFIX = "_from_json"
#: Method-style serializer names on dataclasses.
TO_METHOD = "to_json"
FROM_METHOD = "from_json"
