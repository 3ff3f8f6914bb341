"""The fault-injection framework itself: spec grammar, determinism,
activation, and the provably-zero-cost disabled path."""

import math
import os
import subprocess
import sys

import pytest

from repro import faults
from repro.errors import InjectedFault
from repro.faults.plan import FaultPlan, FaultRule, _uniform


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


class TestSpecGrammar:
    def test_parse_full_entry(self):
        plan = FaultPlan.parse(
            "seed=42;worker.crash=0.5;worker.hang=1.0:2:2.5;"
            "worker.fail=0.3@17"
        )
        assert plan.seed == 42
        assert plan.rules["worker.crash"] == FaultRule(
            "worker.crash", 0.5
        )
        assert plan.rules["worker.hang"] == FaultRule(
            "worker.hang", 1.0, until_attempt=2, param=2.5
        )
        assert plan.rules["worker.fail"].only_key == "17"

    def test_roundtrip_is_stable(self):
        spec = "seed=7;storage.io=0.05;worker.hang=1:3:2.5"
        plan = FaultPlan.parse(spec)
        again = FaultPlan.parse(plan.to_spec())
        assert again.to_spec() == plan.to_spec()
        assert again.seed == plan.seed
        assert again.rules == plan.rules

    def test_rejects_unknown_site(self):
        with pytest.raises(InjectedFault, match="unknown fault site"):
            FaultPlan.parse("seed=1;coffee.machine=0.5")

    def test_rejects_bad_probability(self):
        with pytest.raises(InjectedFault, match="probability"):
            FaultPlan.parse("worker.fail=1.5")

    def test_rejects_malformed_entry(self):
        with pytest.raises(InjectedFault, match="malformed"):
            FaultPlan.parse("worker.fail")


class TestDeterminism:
    def test_uniform_is_stable_across_instances(self):
        a = _uniform(7, "worker.crash", 12)
        b = _uniform(7, "worker.crash", 12)
        assert a == b
        assert 0.0 <= a < 1.0
        assert _uniform(8, "worker.crash", 12) != a

    def test_same_spec_same_schedule(self):
        spec = "seed=13;worker.fail=0.4"
        decisions = [
            [FaultPlan.parse(spec).should("worker.fail", key=k)
             for k in range(50)]
            for _ in range(2)
        ]
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_attempt_gating_makes_faults_retryable(self):
        plan = FaultPlan.parse("seed=1;worker.fail=1.0")
        assert plan.should("worker.fail", key=5, attempt=1)
        assert not plan.should("worker.fail", key=5, attempt=2)

    def test_until_attempt_models_poison(self):
        plan = FaultPlan.parse("seed=1;worker.fail=1.0:99")
        assert all(
            plan.should("worker.fail", key=5, attempt=a)
            for a in range(1, 10)
        )

    def test_only_key_restricts_rule(self):
        plan = FaultPlan.parse("seed=1;worker.fail=1.0@3")
        assert plan.should("worker.fail", key=3)
        assert not plan.should("worker.fail", key=4)

    def test_keyless_sites_use_call_counter(self):
        spec = "seed=3;storage.io=0.5"
        first = [FaultPlan.parse(spec).should("storage.io")
                 for _ in range(1)]
        plan = FaultPlan.parse(spec)
        sequence = [plan.should("storage.io") for _ in range(40)]
        assert sequence[0] == first[0]
        assert any(sequence) and not all(sequence)

    def test_fired_counters(self):
        plan = FaultPlan.parse("seed=1;worker.fail=1.0")
        plan.should("worker.fail", key=1)
        plan.should("worker.fail", key=2)
        plan.should("worker.fail", key=2, attempt=2)  # gated, no fire
        assert plan.fired == {"worker.fail": 2}
        assert plan.fired_total() == 2


class TestActions:
    def test_fail_site_raises_injected_fault(self):
        plan = FaultPlan.parse("seed=1;worker.fail=1.0")
        with pytest.raises(InjectedFault, match="worker.fail"):
            plan.fire("worker.fail", key=1)

    def test_storage_site_raises_sqlite_error(self):
        import sqlite3

        plan = FaultPlan.parse("seed=1;storage.io=1.0")
        with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
            plan.fire("storage.io")

    def test_corrupt_nan(self):
        plan = FaultPlan.parse("seed=1;trainer.nan=1.0")
        assert math.isnan(plan.corrupt_nan("trainer.nan", 0.5, key=1))
        off = FaultPlan.parse("seed=1;trainer.nan=0.0")
        assert off.corrupt_nan("trainer.nan", 0.5, key=1) == 0.5


class TestFacade:
    def test_disabled_hooks_are_noops(self):
        assert not faults.enabled()
        faults.fault_point("worker.crash", key=1)
        assert faults.should("fleet.partition") is False
        assert faults.corrupt_nan("trainer.nan", 1.25) == 1.25

    def test_configure_activates_and_propagates(self):
        faults.configure("seed=5;worker.fail=1.0")
        assert faults.enabled()
        assert os.environ[faults.ENV_VAR] == "seed=5;worker.fail=1"
        with pytest.raises(InjectedFault):
            faults.fault_point("worker.fail", key=1)
        faults.reset()
        assert not faults.enabled()
        assert faults.ENV_VAR not in os.environ

    def test_configure_without_propagation(self):
        faults.configure("seed=5;worker.fail=1.0", propagate=False)
        assert faults.enabled()
        assert faults.ENV_VAR not in os.environ

    def test_disabled_run_never_imports_injector(self):
        """The containment hot paths must not even import the injector
        machinery when REPRO_FAULTS is unset."""
        env = {k: v for k, v in os.environ.items()
               if k != faults.ENV_VAR}
        env["PYTHONPATH"] = "src"
        code = (
            "import sys\n"
            "import repro.service.worker\n"
            "import repro.service.coordinator\n"
            "import repro.nn.trainer\n"
            "import repro.storage.database\n"
            "import repro.fleet.client\n"
            "assert 'repro.faults.plan' not in sys.modules, 'injector leaked'\n"
            "assert 'repro.faults' in sys.modules\n"
            "print('clean')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        assert "clean" in result.stdout

    def test_env_bootstrap_activates_in_fresh_process(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env[faults.ENV_VAR] = "seed=9;worker.fail=1.0"
        code = (
            "from repro import faults\n"
            "assert faults.enabled()\n"
            "assert faults.get_plan().seed == 9\n"
            "print('armed')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        assert "armed" in result.stdout
