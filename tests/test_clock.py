"""The one clock seam (:mod:`repro.clock`) and its one timer,
:class:`~repro.clock.Periodic`."""

import ast
import os
import threading
import time

from repro.clock import Periodic
from repro.fleet.server import FleetServer
from repro.storage import TrialDatabase

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
    "repro",
)

#: What must read time through :mod:`repro.clock` and nothing else.
SEAM = ("service", "fleet", "storage", "faults", "wire.py", "artifacts.py")


def time_reads(source):
    """``(line, what)`` for every direct use of the ``time`` module in
    ``source``: a ``from time import``, or an attribute of ``time`` under
    any alias.  A bare ``import time`` that is never used is none."""
    tree = ast.parse(source)
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(
                alias.asname or alias.name for alias in node.names
                if alias.name == "time"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            found.append((node.lineno, "from time import"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def seam_files():
    for entry in SEAM:
        path = os.path.join(SRC, entry)
        if entry.endswith(".py"):
            yield path
            continue
        for root, _, names in os.walk(path):
            yield from (
                os.path.join(root, name) for name in sorted(names)
                if name.endswith(".py")
            )


class TestSeam:
    def test_the_checker_flags_every_route_to_the_time_module(self):
        source = (
            "import time as _time\n"
            "from time import sleep\n"
            "import time\n"
            "def wait():\n"
            "    return _time.monotonic() + time.time()\n"
        )
        assert time_reads(source) == [
            (2, "from time import"), (5, "_time.monotonic"),
            (5, "time.time"),
        ]
        assert time_reads("import time  # held for a benchmark\n") == []

    def test_only_repro_clock_reads_time(self):
        files = list(seam_files())
        assert os.path.join(SRC, "service", "queue.py") in files
        assert len(files) > 15
        offenders = {}
        for path in files:
            with open(path) as handle:
                reads = time_reads(handle.read())
            if reads:
                offenders[os.path.relpath(path, SRC)] = reads
        assert offenders == {}


def wait_for(condition, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


class TestPeriodic:
    def test_ticks_until_the_block_exits(self):
        ticks = []
        with Periodic(0.01, lambda: ticks.append(1)):
            assert wait_for(lambda: len(ticks) >= 3)
        seen = len(ticks)
        time.sleep(0.05)
        assert len(ticks) == seen

    def test_stops_after_false_but_not_after_zero(self):
        calls = []

        def tick():
            calls.append(1)
            # ``ProcessPool.ensure_alive`` returns 0 when nothing died.
            return False if len(calls) == 3 else 0

        with Periodic(0.01, tick) as timer:
            timer._thread.join(timeout=5.0)
            assert not timer._thread.is_alive()
        assert len(calls) == 3

    def test_exit_abandons_a_wedged_tick_after_the_join_timeout(self):
        entered, release = threading.Event(), threading.Event()

        def wedged():
            entered.set()
            release.wait(10.0)

        timer = Periodic(0.01, wedged, join_timeout_s=0.2).start()
        assert entered.wait(5.0)
        started = time.monotonic()
        timer.stop()
        elapsed = time.monotonic() - started
        release.set()
        assert 0.15 <= elapsed < 2.0

    def test_hub_drain_does_not_wait_out_a_wedged_janitor_sweep(
        self, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()

        def wedged_sweep():
            entered.set()
            release.wait(10.0)
            return {}

        with TrialDatabase() as database:
            server = FleetServer(database, port=0)
            try:
                monkeypatch.setattr(server, "janitor_sweep", wedged_sweep)
                server.start_janitor(interval_s=0.01)
                assert entered.wait(5.0)
                started = time.monotonic()
                server._on_drain()  # the drain hook stops the janitor
                elapsed = time.monotonic() - started
            finally:
                release.set()
                server.server_close()
        # Periodic's bounded join (1 s), not the 10 s sweep.
        assert elapsed < 2.0
