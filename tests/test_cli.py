"""Tests for the command-line interfaces."""

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.__main__ import main as experiments_main


class TestReproCli:
    def test_devices(self, capsys):
        assert repro_main(["devices"]) == 0
        out = capsys.readouterr().out
        for device in ("armv7", "raspberrypi3b", "i7nuc", "titan-server"):
            assert device in out

    def test_workloads(self, capsys):
        assert repro_main(["workloads"]) == 0
        out = capsys.readouterr().out
        for workload in ("IC", "SR", "NLP", "OD"):
            assert workload in out

    def test_tune_minimal(self, capsys):
        code = repro_main([
            "tune", "IC", "--samples", "200", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best accuracy" in out
        assert "deployment" in out

    def test_tune_baseline_system(self, capsys):
        code = repro_main([
            "tune", "IC", "--system", "hyperpower",
            "--samples", "200", "--seed", "3", "--budget", "dataset",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hyperpower" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            repro_main(["tune", "MNIST"])

    def test_traffic_replay_json_deterministic(self, capsys):
        import json

        scenario = "diurnal:rate=20,duration=10,seed=3"
        outputs = []
        for _ in range(2):
            code = repro_main(["traffic", "replay", scenario, "--json"])
            assert code == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        report = outputs[0]
        assert report["requests"] > 0
        assert "p99_latency_s" in report and "digest" in report

    def test_traffic_compare_sweeps_candidates(self, capsys):
        code = repro_main([
            "traffic", "compare", "flash:rate=20,duration=10,seed=3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "p99" in out
        assert "batch" in out

    def test_traffic_bad_scenario_rejected(self, capsys):
        assert repro_main(["traffic", "replay", "tsunami:rate=1"]) == 1
        assert "unknown trace family" in capsys.readouterr().err

    def test_tune_slo_requires_traffic(self, capsys):
        code = repro_main([
            "tune", "IC", "--samples", "200", "--slo-p99", "0.5",
        ])
        assert code == 2
        assert "need --traffic" in capsys.readouterr().err

    def test_tune_under_traffic(self, capsys):
        code = repro_main([
            "tune", "IC", "--samples", "200", "--seed", "3",
            "--traffic", "flash:rate=20,duration=10,seed=3",
            "--traffic-metric", "deadline", "--slo-deadline", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "deployment" in out


class TestExperimentsCli:
    def test_list(self, capsys):
        assert experiments_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out and "table1" in out
        assert "ablation_cache" in out

    def test_run_one(self, capsys):
        assert experiments_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Workloads used for experiments" in out

    def test_save_to_directory(self, tmp_path, capsys):
        assert experiments_main(
            ["--out", str(tmp_path), "fig05"]
        ) == 0
        assert (tmp_path / "fig05.txt").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["fig99"])

    def test_no_args_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main([])


class TestServiceCli:
    def test_submit_status_json_roundtrip(self, tmp_path, capsys):
        import json

        from repro.service.__main__ import main as service_main

        db = str(tmp_path / "svc.sqlite")
        assert service_main([
            "submit", "IC", "--db", db, "--max-trials", "4",
            "--samples", "160", "--warm-start",
        ]) == 0
        session_id = capsys.readouterr().out.strip()

        assert service_main(["status", "--db", db, "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert [row["session"] for row in listing] == [session_id]
        assert listing[0]["state"] == "queued"
        assert listing[0]["spec"]["warm_start"] is True

        assert service_main(["workers", "--db", db, "--drain"]) == 0
        capsys.readouterr()

        assert service_main(["status", "--db", db, "--json",
                             session_id]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "done"
        assert status["jobs"]["done"] == 4
        assert status["result"]["num_trials"] == 4

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_drained_workers_publish_dataset_cache_counters(
        self, tmp_path, capsys, workers
    ):
        """Every trained trial loads its datasets through the worker's
        memo once: a hit or a miss, published by the time the workers
        have stopped (inline worker and pool processes alike)."""
        import json

        from repro.service.__main__ import main as service_main

        db = str(tmp_path / "svc.sqlite")
        service_main(["submit", "IC", "--db", db, "--max-trials", "4",
                      "--samples", "160"])
        session_id = capsys.readouterr().out.strip()
        assert service_main(["workers", "--db", db, "-n", workers,
                             "--drain"]) == 0
        capsys.readouterr()
        assert service_main(["status", "--db", db, "--json",
                             session_id]) == 0
        status = json.loads(capsys.readouterr().out)
        trained = sum(
            worker["jobs_done"] for worker in status["workers"]
            if worker["worker"] != "memo"
        )
        assert trained == status["jobs"]["done"] == 4
        cache = status["dataset_cache"]
        assert cache["hits"] + cache["misses"] == trained
        assert "batching" not in status

    def test_session_stored_with_a_stacking_width_still_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        """Sessions stored while trial stacking existed carry a
        ``trial_batch`` key in their spec: ``status`` and ``resume`` of
        such a (crashed, checkpointed) session still work, and resume
        finishes it exactly as an uninterrupted run."""
        import json

        from repro.core.model_server import ModelTuningServer
        from repro.service import SessionCoordinator, SessionSpec, SessionStore
        from repro.service.__main__ import main as service_main
        from repro.storage import TrialDatabase

        #: ``SessionSpec.to_dict()`` as that version wrote it.
        stored = {
            "budget": "multi-budget", "device": "armv7", "max_trials": 8,
            "num_configs": None, "reuse_checkpoints": False,
            "samples": 160, "scheduler": None, "seed": 7,
            "slo_deadline_s": None, "slo_p99_s": None, "system": "edgetune",
            "target_accuracy": None, "traffic": None,
            "traffic_metric": "p99", "trial_batch": 8,
            "tuning_metric": "runtime", "warm_start": False,
            "workload": "IC",
        }
        spec = SessionSpec.from_dict(stored)
        assert spec == SessionSpec(workload="IC", samples=160, max_trials=8)

        reference_db = str(tmp_path / "reference.sqlite")
        with TrialDatabase(reference_db) as database:
            reference_id = SessionStore(database).create(spec)
        assert service_main(["resume", reference_id,
                             "--db", reference_db]) == 0
        reference = capsys.readouterr().out

        db = str(tmp_path / "old.sqlite")
        with TrialDatabase(db) as database:
            session_id = SessionStore(database).create(spec)
            database.execute(
                "UPDATE sessions SET spec = ? WHERE id = ?",
                (json.dumps(stored, sort_keys=True), session_id),
            )
            original = ModelTuningServer.integrate
            calls = []

            def crashing(self, *args, **kwargs):
                record = original(self, *args, **kwargs)
                calls.append(record)
                if len(calls) == 3:
                    raise RuntimeError("simulated coordinator crash")
                return record

            monkeypatch.setattr(ModelTuningServer, "integrate", crashing)
            with pytest.raises(RuntimeError):
                SessionCoordinator(database, session_id).run()
            monkeypatch.setattr(ModelTuningServer, "integrate", original)

        assert service_main(["status", "--db", db, "--json",
                             session_id]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "failed" and status["resumable"]
        assert status["spec"] == spec.to_dict()
        assert service_main(["status", "--db", db, session_id]) == 0
        capsys.readouterr()
        assert service_main(["resume", session_id, "--db", db]) == 0
        assert capsys.readouterr().out == reference

    def test_status_sections_of_each_counter_writer(self, tmp_path, capsys):
        """One event-counter row from each writer lands in its own
        ``status --json`` section; rows left by trial stacking (``batch.*``)
        land in none."""
        import json
        from types import SimpleNamespace

        from repro.artifacts import ArtifactStore
        from repro.fleet.server import FleetServer
        from repro.service import SessionSpec, SessionStore
        from repro.service.__main__ import main as service_main
        from repro.service.doorbell import Doorbell
        from repro.service.worker import LocalJobs
        from repro.storage import TrialDatabase
        from repro.traffic import record_replay

        db = str(tmp_path / "svc.sqlite")
        with TrialDatabase(db) as database:
            session_id = SessionStore(database).create(
                SessionSpec(workload="IC", samples=160, max_trials=4)
            )
            for _ in range(2):  # the second start counts a hub restart
                FleetServer(database).server_close()
            ArtifactStore(database).quarantine("deadbeef", reason="test")
            record_replay(database, SimpleNamespace(
                requests=40, shed=3, diverged=False, storm_injected=0,
            ))
            LocalJobs(database, "w0", 5.0, Doorbell()).touch(
                {"hits": 2, "misses": 1, "evictions": 0}
            )
            database.execute(
                "INSERT INTO fleet_stats (key, value) VALUES (?, ?)",
                ("batch.stacked_trials", 8.0),
            )

        assert service_main(["status", "--db", db, "--json",
                             session_id]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["fleet"] == {
            "artifacts.quarantined": 1.0, "hub.restarts": 1.0,
        }
        assert status["dataset_cache"] == {
            "hits": 2.0, "misses": 1.0, "evictions": 0.0,
        }
        assert status["artifact_cache"]["quarantined"] == 1
        traffic = status["traffic"]
        assert (traffic["replays"], traffic["requests_replayed"],
                traffic["requests_shed"]) == (1.0, 40.0, 3.0)
        assert traffic["slo_violations"] == {}
        assert "batch" not in json.dumps(status)

    def test_status_plain_text_unchanged(self, tmp_path, capsys):
        from repro.service.__main__ import main as service_main

        db = str(tmp_path / "svc.sqlite")
        service_main(["submit", "IC", "--db", db])
        capsys.readouterr()
        assert service_main(["status", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "queued" in out


class TestTuneWarmStartCli:
    def test_warm_start_requires_db(self, capsys):
        assert repro_main(["tune", "IC", "--warm-start"]) == 2
        assert "--db" in capsys.readouterr().err

    def test_warm_start_rejects_hierarchical(self, tmp_path, capsys):
        db = str(tmp_path / "t.sqlite")
        code = repro_main(["tune", "IC", "--system", "hierarchical",
                           "--warm-start", "--db", db])
        assert code == 2

    def test_warm_start_reports_absorbed_trials(self, tmp_path, capsys):
        db = str(tmp_path / "t.sqlite")
        base = ["tune", "IC", "--system", "tune", "--samples", "160",
                "--seed", "3", "--db", db]
        assert repro_main(base) == 0
        capsys.readouterr()
        assert repro_main(base + ["--warm-start"]) == 0
        out = capsys.readouterr().out
        assert "warm-started from:" in out
        absorbed = int(out.split("warm-started from:")[1].split()[0])
        assert absorbed > 0


class TestAdvisorCli:
    def make_kb(self, tmp_path):
        from repro.advisor import KnowledgeBase
        from repro.storage import TrialDatabase
        from tests.test_advisor_kb import index

        db = str(tmp_path / "kb.sqlite")
        with TrialDatabase(db) as database:
            index(KnowledgeBase(database))
        return db

    def test_dispatch_from_top_level(self, capsys):
        with pytest.raises(SystemExit):
            repro_main(["advisor", "--help"])
        assert "serve" in capsys.readouterr().out

    def test_ask_in_process(self, tmp_path, capsys):
        import json

        db = self.make_kb(tmp_path)
        assert repro_main(["advisor", "ask", "IC", "--db", db,
                           "--target", "0.8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is True
        assert payload["best_configuration"]

    def test_ask_nearest_flagged(self, tmp_path, capsys):
        import json

        db = self.make_kb(tmp_path)
        assert repro_main(["advisor", "ask", "SR", "--db", db]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is False

    def test_ask_exact_miss_fails(self, tmp_path, capsys):
        db = self.make_kb(tmp_path)
        assert repro_main(["advisor", "ask", "SR", "--db", db,
                           "--exact"]) == 1

    def test_index_empty_database(self, tmp_path, capsys):
        db = str(tmp_path / "empty.sqlite")
        assert repro_main(["advisor", "index", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "sessions indexed:  0" in out
