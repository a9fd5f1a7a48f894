"""Unit tests for the resilience primitives and the fault-injection DSL.

These are the building blocks the fleet router and the HTTP frontend
compose (retry/backoff, circuit breaker, health probe, admission
control, deterministic fault injection); each is tested in isolation
here, with fake clocks and lambda probes — the integration behavior
rides the fleet and chaos suites.
"""

import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service import faults
from repro.service.faults import FaultInjector, InjectedFault
from repro.service.resilience import (
    AdmissionControl,
    CircuitBreaker,
    HealthProbe,
    RetryPolicy,
)


class TestRetryPolicy:
    def test_delays_are_jittered_within_the_exponential_envelope(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=1.0,
                             seed=7)
        for attempt in range(1, 6):
            ceiling = min(1.0, 0.1 * 2 ** (attempt - 1))
            for _ in range(50):
                delay = policy.delay(attempt)
                assert 0.0 <= delay <= ceiling, (attempt, delay)

    def test_same_seed_same_delays(self):
        a = RetryPolicy(base_delay=0.1, seed=42)
        b = RetryPolicy(base_delay=0.1, seed=42)
        assert [a.delay(i) for i in (1, 2, 3)] == [b.delay(i)
                                                   for i in (1, 2, 3)]

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestCircuitBreaker:
    def _breaker(self, clock, threshold=3, reset=10.0):
        return CircuitBreaker(failure_threshold=threshold,
                              reset_timeout=reset, clock=clock)

    def test_opens_after_consecutive_failures_only(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.record_failure() is True  # third consecutive: opens
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_half_open_grants_exactly_one_trial(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(3):
            breaker.record_failure()
        now[0] = 11.0  # past reset_timeout
        assert breaker.allow()  # the single half-open trial
        assert breaker.state == "half_open"
        assert not breaker.allow()  # no second trial until an outcome

    def test_half_open_success_closes_failure_reopens(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(3):
            breaker.record_failure()
        now[0] = 11.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

        for _ in range(3):
            breaker.record_failure()
        now[0] = 22.0
        assert breaker.allow()
        assert breaker.record_failure() is True  # failed trial reopens
        assert breaker.state == "open"
        assert not breaker.allow()
        # Three transitions into open: two threshold trips plus the
        # failed half-open trial.
        assert breaker.stats()["opens"] == 3


class TestAdmissionControl:
    def test_none_cap_admits_everything(self):
        control = AdmissionControl(max_inflight=None)
        assert all(control.try_acquire() for _ in range(1000))
        assert control.stats()["shed"] == 0

    def test_sheds_over_the_cap_and_counts(self):
        control = AdmissionControl(max_inflight=2)
        assert control.try_acquire()
        assert control.try_acquire()
        assert not control.try_acquire()
        assert not control.try_acquire()
        control.release()
        assert control.try_acquire()
        stats = control.stats()
        assert stats["shed"] == 2
        assert stats["peak_inflight"] == 2
        assert stats["inflight"] == 2

    def test_rejects_a_nonpositive_cap(self):
        with pytest.raises(ValueError):
            AdmissionControl(max_inflight=0)


class TestHealthProbe:
    def test_counts_sweeps_and_swallows_probe_errors(self):
        sweeps = threading.Event()
        calls = []

        def probe():
            calls.append(1)
            if len(calls) >= 3:
                sweeps.set()
            if len(calls) == 2:
                raise RuntimeError("probe trouble")

        health = HealthProbe(probe, interval=0.01, name="test-probe")
        health.start()
        assert sweeps.wait(5.0), "probe loop never reached three sweeps"
        health.stop()
        stats = health.stats()
        assert stats["sweeps"] >= 3
        assert stats["errors"] >= 1

    def test_stop_before_start_is_a_noop(self):
        health = HealthProbe(lambda: None, interval=0.01)
        health.stop()  # must not raise


class TestFaultSpecParsing:
    def test_round_trips_the_spec_grammar(self):
        injector = FaultInjector.parse(
            "journal.write:raise:0.05,router.recv:delay:0.1@2.0", seed=3
        )
        assert injector.spec == (
            "journal.write:raise:0.05,router.recv:delay:0.1@2"
        )

    @pytest.mark.parametrize("spec", [
        "nope.nope:raise:0.5",          # unknown point
        "journal.write:explode:0.5",    # unknown mode
        "journal.write:raise:1.5",      # probability out of range
        "journal.write:raise:abc",      # probability not a number
        "journal.write:raise:0.5@xyz",  # arg not a number
        "journal.write:raise",          # missing probability
        "",                             # empty spec
    ])
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ServiceError):
            FaultInjector.parse(spec)


class TestFaultInjector:
    def test_same_seed_same_firing_sequence(self):
        def firings(seed):
            injector = FaultInjector.parse("router.recv:raise:0.3",
                                           seed=seed)
            out = []
            for _ in range(50):
                try:
                    injector.fire("router.recv")
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        assert firings(9) == firings(9)
        assert any(firings(9))
        assert not all(firings(9))

    def test_probability_one_always_fires_and_counts(self):
        injector = FaultInjector.parse("journal.write:raise:1.0")
        for _ in range(5):
            with pytest.raises(InjectedFault):
                injector.fire("journal.write")
        assert injector.stats() == {"journal.write:raise": 5}
        injector.fire("journal.read")  # unarmed point: a strict no-op

    def test_delay_sleeps_instead_of_raising(self):
        injector = FaultInjector.parse("router.send:delay:1.0@0.05")
        started = time.monotonic()
        injector.fire("router.send")
        assert time.monotonic() - started >= 0.04
        assert injector.stats() == {"router.send:delay": 1}

    def test_mangle_truncates_and_corrupts_str_and_bytes(self):
        injector = FaultInjector.parse("journal.write:truncate:1.0", seed=5)
        line = '{"seq": 1, "action": "open"}'
        mangled = injector.mangle("journal.write", line)
        assert len(mangled) < len(line)
        assert line.startswith(mangled)

        injector = FaultInjector.parse("journal.write:corrupt:1.0", seed=5)
        blob = b'{"seq": 1, "action": "open"}'
        mangled = injector.mangle("journal.write", blob)
        assert isinstance(mangled, bytes)
        assert len(mangled) == len(blob)
        assert mangled != blob

    def test_fire_points_ignore_mangle_rules_and_vice_versa(self):
        injector = FaultInjector.parse("journal.write:corrupt:1.0")
        injector.fire("journal.write")  # corrupt is a mangle-only mode
        injector = FaultInjector.parse("journal.write:raise:1.0")
        data = "untouched"
        assert injector.mangle("journal.write", data) == data


class TestProcessWideArming:
    def test_hooks_are_noops_until_armed_and_after_disarm(self):
        faults.disarm()
        faults.fire("journal.write")  # must not raise
        assert faults.mangle("journal.write", "data") == "data"

        faults.arm(FaultInjector.parse("journal.write:raise:1.0"))
        try:
            with pytest.raises(InjectedFault):
                faults.fire("journal.write")
        finally:
            faults.disarm()
        faults.fire("journal.write")  # disarmed again: no-op
