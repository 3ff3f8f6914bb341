"""Tests for the advisor TCP server, client, cache and rate limiter."""

import json
import threading
import time

import pytest

from repro.advisor import (
    AdvisorClient,
    AdvisorServer,
    KnowledgeBase,
    LRUCache,
    TokenBucket,
    inference_recommendation_of,
)
from repro.core.results import InferenceRecommendation
from repro.errors import AdvisorError
from repro.service import SessionCoordinator, SessionSpec, SessionStore
from repro.storage import TrialDatabase
from tests.clocks import frozen_clock  # noqa: F401 (fixture)


class TestLRUCache:
    def test_capacity_validated(self):
        with pytest.raises(AdvisorError):
            LRUCache(0)

    def test_get_put(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_len_and_clear(self):
        cache = LRUCache(8)
        for key in range(5):
            cache.put(key, key)
        assert len(cache) == 5
        cache.clear()
        assert len(cache) == 0


class TestTokenBucket:
    def test_rate_validated(self):
        with pytest.raises(AdvisorError):
            TokenBucket(0.0)

    def test_burst_then_refusal(self, frozen_clock):
        bucket = TokenBucket(rate=1.0, burst=3)
        assert all(bucket.allow("c") for _ in range(3))
        assert not bucket.allow("c")

    def test_refills_over_time(self, frozen_clock):
        bucket = TokenBucket(rate=2.0, burst=2)
        assert bucket.allow("c")
        assert bucket.allow("c")
        assert not bucket.allow("c")
        frozen_clock.advance(1.0)
        assert bucket.allow("c")  # 2 tokens/s refill

    def test_clients_are_independent(self, frozen_clock):
        bucket = TokenBucket(rate=1.0, burst=1)
        assert bucket.allow("a")
        assert bucket.allow("b")
        assert not bucket.allow("a")


def seed_kb(database, **overrides):
    from tests.test_advisor_kb import index

    index(KnowledgeBase(database), **overrides)


class TestHandleLine:
    """The in-process request seam (no sockets)."""

    def make(self, **kwargs):
        database = TrialDatabase()
        seed_kb(database)
        return AdvisorServer(database, port=0, **kwargs)

    def ask_line(self, target=0.8):
        return json.dumps({
            "op": "ask", "workload": "IC", "device": "armv7",
            "objective": "runtime", "target_accuracy": target,
        }).encode()

    def test_ping(self):
        server = self.make()
        try:
            response = server.handle_line(b'{"op": "ping"}', "c")
            assert response == {"ok": True, "pong": True, "draining": False}
        finally:
            server.server_close()

    def test_bad_json_is_an_error_response(self):
        server = self.make()
        try:
            response = server.handle_line(b"{nope", "c")
            assert not response["ok"]
            assert "bad frame" in response["error"]
        finally:
            server.server_close()

    def test_unknown_op(self):
        server = self.make()
        try:
            response = server.handle_line(b'{"op": "explode"}', "c")
            assert not response["ok"]
        finally:
            server.server_close()

    def test_ask_cache_miss_then_hit(self):
        server = self.make()
        try:
            first = server.handle_line(self.ask_line(), "c")
            second = server.handle_line(self.ask_line(), "c")
            assert first["ok"] and second["ok"]
            assert first["cache_hit"] is False
            assert second["cache_hit"] is True
            assert first["advice"] == second["advice"]
            stats = server.meters.snapshot()
            assert stats["advisor.cache_hits"] == 1
            assert stats["advisor.cache_misses"] == 1
        finally:
            server.server_close()

    def test_distinct_questions_are_distinct_cache_entries(self):
        server = self.make()
        try:
            server.handle_line(self.ask_line(0.8), "c")
            response = server.handle_line(self.ask_line(0.9), "c")
            assert response["cache_hit"] is False
        finally:
            server.server_close()

    def test_rate_limit(self):
        server = self.make(rate_limit=1.0, burst=2)
        try:
            responses = [
                server.handle_line(self.ask_line(), "client-a")
                for _ in range(4)
            ]
            refused = [r for r in responses if not r.get("ok")]
            assert refused
            assert all(r["error"] == "rate_limited" for r in refused)
        finally:
            server.server_close()

    def test_index_op_refreshes_and_clears_cache(self):
        server = self.make()
        try:
            server.handle_line(self.ask_line(), "c")
            response = server.handle_line(b'{"op": "index"}', "c")
            assert response["ok"]
            assert len(server.cache) == 0
        finally:
            server.server_close()

    def test_stats_reports_latency_percentiles(self):
        server = self.make()
        try:
            server.handle_line(self.ask_line(), "c")
            response = server.handle_line(b'{"op": "stats"}', "c")
            latency = response["stats"]["advisor.latency_s"]
            assert {"p50", "p90", "p99"} <= set(latency)
            assert response["knowledge_base_size"] == 1
        finally:
            server.server_close()


@pytest.fixture
def live_server():
    database = TrialDatabase()
    seed_kb(database)
    server = AdvisorServer(database, port=0)
    thread = threading.Thread(target=server.serve_until_drained, daemon=True)
    thread.start()
    yield server
    server.initiate_drain()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


class TestLiveServer:
    def test_ping_over_socket(self, live_server):
        with AdvisorClient(live_server.host, live_server.port) as client:
            assert client.ping()["pong"] is True

    def test_ask_and_cache_hit_over_socket(self, live_server):
        with AdvisorClient(live_server.host, live_server.port) as client:
            first = client.ask("IC", target_accuracy=0.8)
            second = client.ask("IC", target_accuracy=0.8)
        assert first["ok"] and second["ok"]
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True

    def test_many_requests_one_connection(self, live_server):
        with AdvisorClient(live_server.host, live_server.port) as client:
            for _ in range(50):
                assert client.ask("IC", target_accuracy=0.8)["ok"]
        stats = live_server.meters.snapshot()
        assert stats["advisor.requests"] >= 50
        assert stats["advisor.connections"] == 1

    def test_concurrent_clients(self, live_server):
        errors = []

        def hammer():
            try:
                with AdvisorClient(live_server.host,
                                   live_server.port) as client:
                    for _ in range(20):
                        assert client.ask("IC")["ok"]
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors

    def test_drain_refuses_late_requests(self, live_server):
        with AdvisorClient(live_server.host, live_server.port) as client:
            assert client.ping()["pong"]
            live_server.initiate_drain()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    client.ping()
                    time.sleep(0.05)
                except AdvisorError:
                    break
            else:  # pragma: no cover
                pytest.fail("draining server kept answering")


class TestEndToEnd:
    """ISSUE acceptance: session -> index -> ask, with a cache hit."""

    def test_session_to_recommendation(self):
        database = TrialDatabase()
        spec = SessionSpec(workload="IC", device="armv7", seed=7,
                           samples=240, max_trials=6, target_accuracy=None)
        session_id = SessionStore(database).create(spec)
        result = SessionCoordinator(database, session_id, workers=0).run()
        assert result.inference is not None

        # The coordinator indexes on finalize — no explicit `advisor index`
        # needed; a bulk re-index is idempotent on top of it.
        kb = KnowledgeBase(database)
        assert kb.size() == 1
        assert kb.index_sessions() == 1
        assert kb.size() == 1

        server = AdvisorServer(database, port=0)
        thread = threading.Thread(
            target=server.serve_until_drained, daemon=True
        )
        thread.start()
        try:
            with AdvisorClient(server.host, server.port) as client:
                first = client.ask("IC", device="armv7",
                                   objective="runtime")
                second = client.ask("IC", device="armv7",
                                    objective="runtime")
        finally:
            server.initiate_drain()
            thread.join(timeout=5.0)

        assert first["ok"]
        assert second["cache_hit"] is True
        advice = first["advice"]
        assert advice["session_id"] == session_id
        assert advice["best_configuration"] == result.best_configuration

        # The stored inference block materializes back into the session's
        # InferenceRecommendation.
        rec = inference_recommendation_of(advice["inference"])
        assert isinstance(rec, InferenceRecommendation)
        assert rec.configuration == result.inference.configuration
        assert rec.measurement.throughput_sps == pytest.approx(
            result.inference.measurement.throughput_sps
        )
