"""The RPA101 runtime twin, and regressions for the lock fixes.

The static check found genuinely unguarded reads in the stats counters
(``IncrementalStats.actions`` / ``delta_hit_rate``). These tests pin
the fixes with an instrumented lock: the property must take the lock, and must take it *once* (a single scope — two separate
acquisitions would let a writer interleave between numerator and
denominator and report a hit rate above 1.0).
"""

import threading

import pytest

from repro.analysis import runtime
from repro.analysis.runtime import LockDisciplineError, assert_locked
from repro.core.cache import IncrementalStats
from repro.service.manager import SessionManager


class ProbeLock:
    """Context-manager lock that counts acquisitions."""

    def __init__(self):
        self._inner = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self._inner.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc):
        self._inner.release()
        return False


@pytest.fixture
def armed():
    runtime.enable()
    yield
    runtime.disable()


class TestAssertLocked:
    def test_noop_when_disabled(self):
        runtime.disable()
        assert_locked(threading.Lock(), "x")  # must not raise

    def test_rlock_ownership(self, armed):
        lock = threading.RLock()
        with pytest.raises(LockDisciplineError, match="does not own"):
            assert_locked(lock, "lock")
        with lock:
            assert_locked(lock, "lock")

    def test_plain_lock(self, armed):
        lock = threading.Lock()
        with pytest.raises(LockDisciplineError):
            assert_locked(lock)
        with lock:
            assert_locked(lock)


class TestRequiresLockMethods:
    def test_manager_eviction_demands_the_lock(self, armed, toy):
        manager = SessionManager(toy.schema, toy.graph, ttl_seconds=None)
        with pytest.raises(LockDisciplineError):
            manager._evict_expired()
        with manager._lock:
            manager._evict_expired()  # fine under the lock


class TestIncrementalStatsLocking:
    def test_actions_property_takes_the_lock_once(self):
        stats = IncrementalStats()
        stats.note_delta("filter", rows_touched=3)
        stats.note_replay()
        stats.note_replan(cost_gated=False)
        probe = stats._lock = ProbeLock()
        assert stats.actions == 3
        assert probe.acquisitions == 1

    def test_delta_hit_rate_single_lock_scope(self):
        stats = IncrementalStats()
        stats.note_delta("filter", rows_touched=3)
        stats.note_replay()
        stats.note_replan(cost_gated=False)
        probe = stats._lock = ProbeLock()
        assert stats.delta_hit_rate == pytest.approx(2 / 3)
        assert probe.acquisitions == 1

    def test_delta_hit_rate_empty(self):
        assert IncrementalStats().delta_hit_rate == 0.0
