"""Reusable resilience policies for the navigation service.

The fleet's failure handling is policy, not scattered ad-hoc recovery:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  full jitter, under a per-call deadline budget;
* :class:`CircuitBreaker` — per-worker closed/open/half-open gate on
  consecutive transport failures;
* :class:`HealthProbe` — a background sweep that pings workers so death
  is noticed before a user request trips over it;
* :class:`AdmissionControl` — a bounded in-flight cap for the HTTP
  frontend (shed with 503 + ``Retry-After`` instead of queueing).

All four are transport-agnostic and deterministic enough to unit-test
without a fleet (seeded RNG, injectable clock, plain callables).
"""

from repro.service.resilience.admission import AdmissionControl
from repro.service.resilience.breaker import CircuitBreaker
from repro.service.resilience.probe import HealthProbe
from repro.service.resilience.retry import RetryPolicy

__all__ = [
    "AdmissionControl",
    "CircuitBreaker",
    "HealthProbe",
    "RetryPolicy",
]
