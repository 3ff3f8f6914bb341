"""Test clocks substituted for :mod:`repro.clock` (``now``, ``monotonic``
and ``sleep`` at once).

* ``frozen_clock`` — time moves only when the test moves it: for unit
  tests that assert absolute stamps, step the wall clock, or count
  backoff sleeps.  Nothing that waits on a deadline may run under it.
* ``offset_clock`` — real time, shifted ahead on both readings by what
  the test advances: for tests with live server threads whose long polls
  need real deadlines to pass.
* ``recording_clock`` — real time whose sleeps are also recorded, with
  the monotonic reading each began at and the last reading the code
  under test took before it: for tests that judge a wait by the steps it
  asked for rather than by how long the host took.

A test module imports the fixture it uses from here.
"""

import time

import pytest

from repro import clock


class FrozenClock:
    def __init__(self, wall=1000.0, mono=500.0):
        self.wall = wall
        self.mono = mono
        #: Every ``clock.sleep`` request, in order; none of them waits.
        self.sleeps = []

    def now(self):
        return self.wall

    def monotonic(self):
        return self.mono

    def sleep(self, seconds):
        self.sleeps.append(seconds)

    def advance(self, dt):
        """Normal passage of time: both readings move together."""
        self.wall += dt
        self.mono += dt

    def at(self, wall):
        """Move both readings so that the wall reads ``wall``."""
        self.advance(wall - self.wall)

    def step_wall(self, dt):
        """An NTP step: only the wall reading jumps."""
        self.wall += dt


class OffsetClock:
    def __init__(self):
        self.offset = 0.0

    def now(self):
        return time.time() + self.offset

    def monotonic(self):
        return time.monotonic() + self.offset

    def sleep(self, seconds):
        time.sleep(seconds)

    def advance(self, dt):
        """Jump both readings ``dt`` seconds ahead of real time."""
        self.offset += dt


class RecordingClock:
    def __init__(self):
        #: ``(began, seconds, read)`` of every ``clock.sleep``: the
        #: monotonic time it began, the step asked for, and the last
        #: ``clock.monotonic()`` reading handed out before it (``None``
        #: if there was none).
        self.sleeps = []
        self._read = None

    def now(self):
        return time.time()

    def monotonic(self):
        self._read = time.monotonic()
        return self._read

    def sleep(self, seconds):
        self.sleeps.append((time.monotonic(), seconds, self._read))
        time.sleep(seconds)


def _install(monkeypatch, fake):
    for name in ("now", "monotonic", "sleep"):
        monkeypatch.setattr(clock, name, getattr(fake, name))
    return fake


@pytest.fixture()
def frozen_clock(monkeypatch):
    return _install(monkeypatch, FrozenClock())


@pytest.fixture()
def offset_clock(monkeypatch):
    return _install(monkeypatch, OffsetClock())


@pytest.fixture()
def recording_clock(monkeypatch):
    return _install(monkeypatch, RecordingClock())
