"""Test clocks substituted for :mod:`repro.clock` (``now``, ``monotonic``
and ``sleep`` at once).

* ``frozen_clock`` — time moves only when the test moves it: for unit
  tests that assert absolute stamps, step the wall clock, or count
  backoff sleeps.  Nothing that waits on a deadline may run under it.
* ``offset_clock`` — real time, shifted ahead on both readings by what
  the test advances: for tests with live server threads whose long polls
  need real deadlines to pass.
* ``recording_clock`` — real time whose sleeps are also recorded, with
  the monotonic reading each began at: for tests that judge a wait by
  the steps it asked for rather than by how long the host took.

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
        #: ``(monotonic reading, seconds)`` of every ``clock.sleep``.
        self.sleeps = []

    def now(self):
        return time.time()

    def monotonic(self):
        return time.monotonic()

    def sleep(self, seconds):
        self.sleeps.append((time.monotonic(), seconds))
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
