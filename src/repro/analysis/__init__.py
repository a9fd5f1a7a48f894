"""AST-based invariant checkers for the reproduction's concurrency core.

PRs 3-5 turned the reproduction into a concurrent, multi-engine service
whose correctness rests on conventions no test can see directly: which
attributes a lock guards and which dataclasses the wire protocol must
round-trip. This package makes those conventions *machine-checked at lint
time* — the "compile-time contract" discipline server codebases such as
edgedb apply to their cores — so the next concurrency changes fail in CI
instead of in a fuzzer stack trace.

Check catalog
=============

========  ==========================================================
code      invariant
========  ==========================================================
RPA101    **Lock discipline.** Attributes declared
          ``# guarded-by: self._lock`` may only be read or written
          inside a ``with self._lock:`` scope or inside a method
          annotated ``# requires-lock`` (caller holds the lock).
RPA103    **Protocol field coverage.** Every dataclass serialized by
          a ``X_to_json`` / ``X_from_json`` pair (or ``to_json`` /
          ``from_json`` methods) must have *every* field read on the
          serialize side and restored by the constructor call on the
          deserialize side — adding a field without wire support
          fails lint instead of fuzz.
========  ==========================================================

Running
=======

::

    PYTHONPATH=src python -m repro.analysis src examples benchmarks
    PYTHONPATH=src python -m repro.analysis --list-checks
    PYTHONPATH=src python -m repro.analysis --select RPA101,RPA103 src

Findings are reported one per line as ``file:line:col: CODE message``;
the process exits non-zero when any finding survives, so the CI ``lint``
job gates on a clean run.

Suppressions
============

``# repro: noqa-RPA101`` on the offending line suppresses that code
there; ``# repro: noqa`` suppresses every code on the line. A noqa
comment on a ``def``/``class`` line suppresses inside the whole body —
used sparingly, with a justification comment, for deliberate exceptions
such as the lock-free ``CachingExecutor.stats_payload`` health probe.

The runtime twin
================

:mod:`repro.analysis.runtime` provides ``assert_locked(lock)``, a
debug-mode *dynamic* counterpart of RPA101: ``# requires-lock`` methods
call it on entry, and with ``REPRO_DEBUG_LOCKS=1`` (or
``runtime.enable()``) it raises if the caller does not actually hold the
lock — so the static annotation and the runtime behaviour cross-validate
under the service-layer concurrency stress tests.
"""

from repro.analysis.base import Check, Finding, all_checks, register
from repro.analysis.runner import Project, analyze_paths, format_finding

__all__ = [
    "Check",
    "Finding",
    "Project",
    "all_checks",
    "analyze_paths",
    "format_finding",
    "register",
]
