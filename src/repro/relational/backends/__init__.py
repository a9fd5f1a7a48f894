"""Pluggable SQL execution backends (the ROADMAP's multi-backend item).

Every backend implements the :class:`SqlBackend` protocol: load a
:class:`~repro.relational.database.Database`, execute SQL, return a
:class:`~repro.relational.algebra.Relation`. The execution strategies in
:mod:`repro.core.sql_execution` accept any backend (or its registry name),
defaulting to the byte-compatible in-memory engine::

    from repro.relational.backends import create_backend

    backend = create_backend("sqlite", db)   # or MemoryBackend(db)
    result = execute_monolithic(db, pattern, schema, mapping, graph,
                                backend=backend)
"""

from repro.relational.backends.base import (
    BackendCapabilities,
    SqlBackend,
    backend_class,
    backend_names,
    create_backend,
    register_backend,
)
from repro.relational.backends.memory import MemoryBackend
from repro.relational.backends.sqlite_backend import SqliteBackend

__all__ = [
    "BackendCapabilities",
    "MemoryBackend",
    "SqlBackend",
    "SqliteBackend",
    "backend_class",
    "backend_names",
    "create_backend",
    "register_backend",
]
