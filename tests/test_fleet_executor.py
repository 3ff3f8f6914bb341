"""A fleet host is the service's one executor: a ``TrialWorker`` whose job
source is the hub.

So everything the worker does, a host does: the trial deadline, the
``worker.*`` chaos sites and the dataset-memo counters.  Each of these
was missing from the host while it had an execution loop of its own.
"""

import threading

import pytest

from repro import faults
from repro.core import model_server
from repro.fleet.host import RemoteHost
from repro.fleet.server import FleetServer
from repro.service import JobQueue
from repro.storage import TrialDatabase

from tests.test_fleet import SPEC, Fleet
from tests.test_handoff import LiveFleet, inline_fingerprint
from tests.test_service_coordinator import fingerprint, make_session

#: ``tests/test_faults_service.py``'s chaos spec.
TINY = dict(max_trials=4, samples=160)


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def run_on_two_hosts(tmp_path, **host_options):
    """One session through an in-process 2-host fleet; returns the result
    and the session's job rows and last error, read before teardown."""
    with LiveFleet(tmp_path, hosts=2, **host_options) as server:
        session_id, _ = make_session(server.database, **TINY)
        (result,) = server.run_sessions(drain=True)
        queue = JobQueue(server.database)
        return (result, queue.jobs_for(session_id, "done"),
                queue.last_error(session_id))


class TestWorkerSitesOnHosts:
    def test_worker_hang_on_a_host_trips_the_trial_deadline(self, tmp_path):
        reference = inline_fingerprint(**TINY)
        faults.configure("seed=11;worker.hang=0.6:1:5", propagate=False)
        result, done, last_error = run_on_two_hosts(
            tmp_path, trial_timeout_s=0.3
        )
        assert fingerprint(result) == reference
        assert [job for job in done if job.attempts > 1]
        assert "deadline" in (last_error or "")

    def test_worker_fail_on_a_host_converges(self, tmp_path):
        reference = inline_fingerprint(**TINY)
        faults.configure("seed=11;worker.fail=0.5", propagate=False)
        result, done, last_error = run_on_two_hosts(tmp_path)
        assert fingerprint(result) == reference
        assert [job for job in done if job.attempts > 1]
        assert "injected fault at worker.fail" in (last_error or "")


class TestDatasetCacheCounters:
    def test_heartbeat_carries_only_nonzero_deltas(self):
        """An idle host's heartbeat is the bare frame; loads ride the next
        touch, and ``close`` flushes what is left."""
        with TrialDatabase() as database:
            server = FleetServer(database, port=0)
            thread = threading.Thread(
                target=server.serve_until_drained, daemon=True
            )
            thread.start()
            host = RemoteHost("machine-1", "127.0.0.1", server.port)
            frames = []
            request = host.hub.client.request

            def recording(op, **params):
                frames.append((op, params))
                return request(op, **params)

            try:
                host.hub.register()
                host.hub.client.request = recording
                host._publish_dataset_cache_stats(touch=True)
                model_server._DATASET_CACHE_COUNTERS["misses"] += 1
                host._publish_dataset_cache_stats(touch=True)
                host._publish_dataset_cache_stats(touch=True)
                model_server._DATASET_CACHE_COUNTERS["hits"] += 2
                host.close()
                host.close()  # nothing left to flush
                stats = server.database.stats()
            finally:
                server.initiate_drain()
                thread.join(timeout=5.0)
        bare = ("heartbeat", {"machine_id": "machine-1"})
        assert frames == [
            bare,
            ("heartbeat", {"machine_id": "machine-1",
                           "dataset_cache": {"misses": 1.0}}),
            bare,
            ("heartbeat", {"machine_id": "machine-1",
                           "dataset_cache": {"hits": 2.0}}),
        ]
        assert stats["dataset_cache.misses"] == 1.0
        assert stats["dataset_cache.hits"] == 2.0

    @pytest.mark.slow
    def test_drained_hosts_publish_one_load_per_trained_trial(
        self, tmp_path
    ):
        """Host processes: every trial a host trains loads its datasets
        through that process's memo once — a hit or a miss — and the
        hub holds the sum once the hosts have stopped."""
        fleet = Fleet(tmp_path, "datasets")
        try:
            fleet.submit()
            (result,) = fleet.run()  # stops the hosts before returning
            trained = sum(m.jobs_done for m in fleet.server.registry.list())
            stats = fleet.stats()
        finally:
            fleet.close()
        assert trained == len(result.trials) == SPEC["max_trials"]
        # A forked host inherits the parent's warm memo: hits, maybe all.
        loads = sum(
            stats.get(f"dataset_cache.{key}", 0.0) for key in ("hits", "misses")
        )
        assert loads == trained
