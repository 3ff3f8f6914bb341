"""Real time for the service, fleet, storage, fault and wire layers.

Those layers read the host's clock only through this module:
``clock.now()`` for wall-clock stamps (comparable across processes),
``clock.monotonic()`` for deadlines and durations, ``clock.sleep()`` for
backoff.  Callers look the three names up at call time, so substituting
them here moves every lease, heartbeat, janitor and long poll at once.

:mod:`repro.sim.clock` is a different thing: it adds up the *emulated*
device seconds the paper's figures report, and nothing there ever waits.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

now = time.time
monotonic = time.monotonic
sleep = time.sleep


class Periodic:
    """Daemon thread calling ``tick`` every ``interval_s`` from
    :meth:`start` (or entering the ``with`` block) to :meth:`stop`, or
    until ``tick`` returns ``False``: the one timer behind lease
    renewal, the fleet hub's janitor and the host pool's supervisor."""

    def __init__(self, interval_s: float, tick: Callable[[], Any],
                 join_timeout_s: float = 1.0):
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._join_timeout_s = join_timeout_s

        def run() -> None:
            while not self._stop.wait(interval_s) and tick() is not False:
                pass

        self._thread = threading.Thread(target=run, daemon=True)

    def start(self) -> "Periodic":
        self._thread.start()
        return self

    def stop(self, *exc_info: Any) -> None:
        self._stop.set()
        # Bounded join: a tick stuck in a wedged sqlite call or socket is
        # abandoned (a daemon) rather than outlive a sibling's reclaim.
        self._thread.join(timeout=self._join_timeout_s)

    __enter__ = start
    __exit__ = stop
