"""Deterministic fault injection for chaos-testing the service stack.

The service's failure handling is only trustworthy if failures are a
*testable input*: injected at named points, at controlled probabilities,
from a fixed seed, so a chaos run that passes today reproduces
bit-identically tomorrow. This module is that input. Production code
threads zero-cost hooks through its failure-prone seams::

    faults.fire("journal.write")          # may raise / delay
    data = faults.mangle("journal.write", data)   # may truncate / corrupt

and both are strict no-ops unless an injector is armed with :func:`arm`
(``examples/serve.py --faults`` and a fleet worker spec's ``"faults"``
entry both arm one).

Spec grammar (comma-separated rules)::

    journal.write:raise:0.05,router.recv:delay:0.1@2.0
    ^point        ^mode ^probability         ^optional arg

* ``raise``    — raise :class:`InjectedFault` (an ``OSError``) at the point;
* ``delay``    — sleep ``arg`` seconds (default 0.05) at the point;
* ``truncate`` — drop a random-length suffix of the data being written;
* ``corrupt``  — flip one character of the data being written.

``raise``/``delay`` apply at :func:`fire` hooks, ``truncate``/``corrupt``
at :func:`mangle` hooks. The seed is :meth:`FaultInjector.parse`'s
``seed=`` argument (default 0). Known points are listed in
:data:`FAULT_POINTS`; unknown names are rejected so a typo cannot
silently arm nothing.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.errors import ServiceError

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "active",
    "arm",
    "disarm",
    "fire",
    "mangle",
]

FAULT_POINTS = (
    "router.send",
    "router.recv",
    "worker.boot",
    "journal.write",
    "journal.fsync",
    "journal.read",
)

_FIRE_MODES = ("raise", "delay")
_MANGLE_MODES = ("truncate", "corrupt")
_DEFAULT_DELAY = 0.05


class InjectedFault(OSError):
    """An error raised on purpose by an armed fault rule.

    Subclasses ``OSError`` so every ``except OSError`` recovery path in
    the stack treats an injected failure exactly like a real one — the
    whole point of injecting it.
    """


@dataclass(frozen=True)
class FaultRule:
    """One armed rule: ``point:mode:probability[@arg]``."""

    point: str
    mode: str
    probability: float
    arg: float | None = None

    def spec(self) -> str:
        base = f"{self.point}:{self.mode}:{self.probability:g}"
        if self.arg is not None:
            base = f"{base}@{self.arg:g}"
        return base


def _parse_rule(token: str) -> FaultRule:
    parts = token.split(":")
    if len(parts) != 3:
        raise ServiceError(
            f"bad fault rule {token!r}: want point:mode:probability[@arg]"
        )
    point, mode, tail = parts
    if point not in FAULT_POINTS:
        raise ServiceError(
            f"unknown fault point {point!r}: want one of {FAULT_POINTS}"
        )
    if mode not in _FIRE_MODES + _MANGLE_MODES:
        raise ServiceError(
            f"unknown fault mode {mode!r}: want one of "
            f"{_FIRE_MODES + _MANGLE_MODES}"
        )
    arg: float | None = None
    if "@" in tail:
        tail, arg_text = tail.split("@", 1)
        try:
            arg = float(arg_text)
        except ValueError:
            raise ServiceError(
                f"bad fault arg in {token!r}: {arg_text!r} is not a number"
            ) from None
    try:
        probability = float(tail)
    except ValueError:
        raise ServiceError(
            f"bad fault probability in {token!r}: {tail!r} is not a number"
        ) from None
    if not 0.0 <= probability <= 1.0:
        raise ServiceError(
            f"bad fault probability in {token!r}: {probability} not in [0, 1]"
        )
    return FaultRule(point=point, mode=mode, probability=probability, arg=arg)


class FaultInjector:
    """A seeded registry of armed fault rules.

    Thread-safe: the RNG and the fired-counters are shared across router
    threads, frontends, and the worker serve loop, so both live behind
    one lock. Determinism holds per-injector: the same rule spec, seed,
    and call sequence produce the same firings.
    """

    def __init__(self, rules, seed: int = 0):
        self.rules = tuple(rules)
        self.seed = seed
        self._by_point: dict[str, tuple[FaultRule, ...]] = {}
        for rule in self.rules:
            self._by_point[rule.point] = (
                self._by_point.get(rule.point, ()) + (rule,)
            )
        self._lock = threading.Lock()
        self._rng = random.Random(seed)  # guarded-by: self._lock
        self._fired: dict[str, int] = {}  # guarded-by: self._lock

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultInjector":
        rules = [
            _parse_rule(token.strip())
            for token in spec.split(",")
            if token.strip()
        ]
        if not rules:
            raise ServiceError(f"empty fault spec: {spec!r}")
        return cls(rules, seed=seed)

    @property
    def spec(self) -> str:
        """The rule list re-serialized — what a worker spec dict carries."""
        return ",".join(rule.spec() for rule in self.rules)

    def fire(self, point: str) -> None:
        """Maybe raise or delay at ``point``; a no-op for unarmed points."""
        delay = 0.0
        with self._lock:
            for rule in self._by_point.get(point, ()):
                if rule.mode not in _FIRE_MODES:
                    continue
                if self._rng.random() >= rule.probability:
                    continue
                self._count_locked(rule)
                if rule.mode == "raise":
                    raise InjectedFault(f"injected fault at {point}")
                delay += rule.arg if rule.arg is not None else _DEFAULT_DELAY
        if delay:
            time.sleep(delay)

    def mangle(self, point: str, data):
        """Maybe truncate or corrupt ``data`` (str or bytes) at ``point``."""
        with self._lock:
            for rule in self._by_point.get(point, ()):
                if rule.mode not in _MANGLE_MODES:
                    continue
                if not data or self._rng.random() >= rule.probability:
                    continue
                self._count_locked(rule)
                if rule.mode == "truncate":
                    data = data[: self._rng.randrange(len(data))]
                else:
                    index = self._rng.randrange(len(data))
                    if isinstance(data, bytes):
                        flipped = bytes([data[index] ^ 0x20])
                    else:
                        flipped = chr(ord(data[index]) ^ 0x20)
                    data = data[:index] + flipped + data[index + 1 :]
        return data

    # requires-lock
    def _count_locked(self, rule: FaultRule) -> None:
        key = f"{rule.point}:{rule.mode}"
        self._fired[key] = self._fired.get(key, 0) + 1

    def stats(self) -> dict[str, int]:
        """``{"point:mode": fired_count}`` for every rule that ever fired."""
        with self._lock:
            return dict(self._fired)


# ----------------------------------------------------------------------
# Process-wide armed injector. ``fire``/``mangle`` below are the hooks
# production code calls; they are strict no-ops until arm() installs an
# injector.
# ----------------------------------------------------------------------
_ACTIVE: FaultInjector | None = None


def active() -> FaultInjector | None:
    """The armed injector, or ``None``."""
    return _ACTIVE


def arm(injector: FaultInjector) -> FaultInjector:
    """Arm ``injector`` process-wide."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def disarm() -> None:
    """Drop the armed injector; subsequent hooks are no-ops again."""
    global _ACTIVE
    _ACTIVE = None


def fire(point: str) -> None:
    injector = _ACTIVE
    if injector is not None:
        injector.fire(point)


def mangle(point: str, data):
    injector = _ACTIVE
    if injector is None:
        return data
    return injector.mangle(point, data)
