"""Doorbells: how a session's producers wake its consumers.

A producer that has just committed work (jobs enqueued, a result row
written) **rings**; the consumer that used to find it on its next 50 ms
poll **waits** on the bell, with the old poll interval as the *fallback
tick* — whatever nobody rings for (retry backoff expiring, a lease
timing out, a dead worker) is still noticed one tick later.  Rules for
every user (DESIGN.md §6, "Hand-off protocol"): ring only *after* the
commit that makes the row visible; *wait, then check* — the bell is
level-triggered, so a ring during the check stays pending and no
wake-up is lost, while spurious ones are harmless.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
from typing import Iterator, List


class Doorbell:
    """One waiter, any number of ringers — threads or processes.

    A ring is one non-blocking byte down a pipe: no lock or waiter count
    that a ``kill -9``'d sleeper could leave held (which rules out
    ``multiprocessing.Condition``/``Event``).  Passed to another process
    as a ``Process`` argument (``fork`` or ``spawn``), both ends
    together, so no holder ever sees EOF or ``EPIPE``.
    """

    def __init__(self) -> None:
        self._reader, self._writer = multiprocessing.Pipe(duplex=False)
        # O_NONBLOCK lives on the open file description, so it follows
        # the ends into every process they are passed to.
        os.set_blocking(self._reader.fileno(), False)
        os.set_blocking(self._writer.fileno(), False)

    def ring(self) -> None:
        try:
            os.write(self._writer.fileno(), b"\0")
        except OSError:
            pass  # full: already ringing; closed: nobody left to wake

    def wait(self, timeout: float) -> bool:
        """Block until rung or ``timeout`` seconds pass; ``True`` if rung
        (EINTR-safe: ``poll`` recomputes its timeout after a signal)."""
        if not self._reader.poll(max(0.0, timeout)):
            return False
        try:
            while len(os.read(self._reader.fileno(), 4096)) == 4096:
                pass
        except BlockingIOError:
            pass  # a sibling thread drained it first
        return True

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


class Doorbells:
    """A broadcast bell: one :class:`Doorbell` per waiter, rung together
    (whoever drained a shared pipe would swallow a busy sibling's
    wake-up).  A fixed one per pool worker (:meth:`add`), or one for the
    duration of a blocked fleet ``lease`` (:meth:`listening`)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._bells: List[Doorbell] = []

    def add(self) -> Doorbell:
        bell = Doorbell()
        with self._lock:
            self._bells.append(bell)
        return bell

    def ring(self) -> None:
        with self._lock:
            for bell in self._bells:
                bell.ring()

    @contextlib.contextmanager
    def listening(self) -> Iterator[Doorbell]:
        """A bell that hears every :meth:`ring` from now until exit;
        enter *before* the check whose miss the wait is for."""
        bell = self.add()
        try:
            yield bell
        finally:
            # Under the lock, so no ringer can write to a closed (and
            # possibly reused) descriptor.
            with self._lock:
                self._bells.remove(bell)
                bell.close()
