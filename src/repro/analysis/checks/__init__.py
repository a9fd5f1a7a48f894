"""Builtin invariant checks; importing this package registers them."""

from repro.analysis.checks import (  # noqa: F401  (import for side effect)
    locks,
    protocol,
)
