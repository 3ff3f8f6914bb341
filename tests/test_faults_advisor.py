"""Advisor-path resilience: circuit breaker and client retries under
injected connection faults (the transport's tolerance for hostile frames
and raising verbs is ``tests/test_wire.py``)."""

import threading

import pytest

from repro import faults
from repro.advisor import (
    AdvisorClient,
    AdvisorServer,
    CircuitBreaker,
    KnowledgeBase,
)
from repro.advisor.resilience import CLOSED, HALF_OPEN, OPEN
from repro.errors import AdvisorError
from repro.storage import TrialDatabase


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def server():
    database = TrialDatabase()
    from tests.test_advisor_kb import index

    index(KnowledgeBase(database))
    server = AdvisorServer(database, port=0)
    thread = threading.Thread(target=server.serve_until_drained,
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.initiate_drain()
        thread.join(timeout=5.0)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0,
                                 clock=lambda: clock[0])
        assert breaker.state == CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_half_open_probe_then_close(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        assert not breaker.allow()
        clock[0] = 5.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe is admitted
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock[0] = 9.9
        assert not breaker.allow()  # full cool-down restarts
        clock[0] = 10.0
        assert breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestClientRetries:
    def test_retries_through_injected_drops(self, server):
        # Every first attempt drops the connection; the retry succeeds
        # (until_attempt defaults to 1).
        faults.configure("seed=2;advisor.drop=1.0", propagate=False)
        with AdvisorClient(port=server.port, backoff_s=0.001) as client:
            response = client.ping()
        assert response["ok"]

    def test_retries_through_injected_garbage(self, server):
        faults.configure("seed=2;advisor.garbage=1.0", propagate=False)
        with AdvisorClient(port=server.port, backoff_s=0.001) as client:
            response = client.ask("IC", target_accuracy=0.8)
        assert response["ok"]

    def test_retry_budget_exhaustion_raises(self, server):
        # Faults on every attempt (until_attempt=99) defeat the retries.
        faults.configure("seed=2;advisor.garbage=1.0:99", propagate=False)
        with AdvisorClient(port=server.port, retries=1,
                           backoff_s=0.001) as client:
            with pytest.raises(AdvisorError, match="malformed"):
                client.ping()

    def test_try_ask_returns_none_on_failure(self):
        # Nothing listens on this port: try_ask degrades to cold-start.
        client = AdvisorClient(port=1, timeout_s=0.1, retries=0)
        assert client.try_ask("IC") is None

    def test_breaker_fails_fast_once_open(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=60.0)
        client = AdvisorClient(port=1, timeout_s=0.1, retries=0,
                               backoff_s=0.001, breaker=breaker)
        for _ in range(2):
            with pytest.raises(AdvisorError):
                client.request("ping")
        assert breaker.state == OPEN
        with pytest.raises(AdvisorError, match="circuit is open"):
            client.request("ping")

    def test_breaker_closes_after_recovery(self, server):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()  # as if the server had been down
        client = AdvisorClient(port=server.port, retries=0,
                               backoff_s=0.001, breaker=breaker)
        with pytest.raises(AdvisorError, match="circuit is open"):
            client.request("ping")
        clock[0] = 5.0  # cool-down elapsed: half-open probe goes through
        assert client.ping()["ok"]
        assert breaker.state == CLOSED
        client.close()
