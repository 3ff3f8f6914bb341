"""Host-side measurement: speed sampling, CPU/RSS accounting, host block.

This box is a small shared VM.  Its speed moves by +-15 % from one
second to the next and the hypervisor withholds 3-8 % of its CPU time
(README, "Noise"), so raw session times of the *same code* differ by
25 % between 20 s windows.  Two things are therefore measured while an
interval runs and taken out of it (:func:`correct`):

* **speed** -- an interval timer fires every 10 ms and its handler, on
  the harness's main thread between two bytecodes of whatever the
  session is doing, times one fixed ~0.6 ms calibration unit on the
  thread's CPU clock.  The interval's factor is the mean unit time over
  the committed :data:`REFERENCE_UNIT_S`.  (A calibration group timed
  before and after the session does not work here: it sees ~0.1 s of a
  host the session averages over ~2 s.)
* **steal** -- ``/proc/stat``'s steal column over the interval.

Only the share of the interval in which the session's processes wanted
a CPU is corrected; a poll sleep takes the same 50 ms on a slow host.
"""

from __future__ import annotations

import contextlib
import os
import platform
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

#: Mean calibration-unit time on the host the first numbers were
#: committed from, in its fast state.  A constant on purpose: corrected
#: figures from different days and machines share this one yardstick.
REFERENCE_UNIT_S = 0.00050

#: Sampling period of the in-interval speed probe.
SAMPLE_PERIOD_S = 0.010

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class SessionTimeout(Exception):
    """Raised on the main thread when a measured interval overruns."""


# -- calibration unit ---------------------------------------------------------
class CalibrationUnit:
    """A fixed ~0.6 ms mix of what a tuning session spends its time on:
    a Python-level loop of small-matrix tanh steps (the recurrent
    trainer), dict counting (scheduler/queue bookkeeping), one small
    gemm and an elementwise max (the conv/dense path)."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.steps = rng.standard_normal((40, 16, 32))
        self.recurrent = rng.standard_normal((32, 32)) * 0.1
        self.left = rng.standard_normal((96, 96))
        self.right = rng.standard_normal((96, 96))
        self.keys = [int(k) for k in rng.integers(0, 97, size=4000)]

    def run(self) -> float:
        hidden = np.zeros((16, 32))
        for step in self.steps:
            hidden = np.tanh(step + hidden @ self.recurrent)
        counts: Dict[int, int] = {}
        for key in self.keys:
            counts[key] = counts.get(key, 0) + 1
        product = self.left @ self.right
        np.maximum(product, 0.0, out=product)
        return float(hidden[0, 0] + product[0, 0] + len(counts))


@dataclass(frozen=True)
class Interval:
    """What the sampler saw during one measured interval."""

    samples: int
    #: Mean unit CPU time over the reference: how much slower than the
    #: reference host the interval computed.
    factor: float
    #: Time the handler itself took; not part of the measured work.
    probe_cpu_s: float
    probe_wall_s: float


class SpeedSampler:
    """Interval-timer driven speed probe (main thread only)."""

    def __init__(self, seed: int, period_s: float = SAMPLE_PERIOD_S):
        self.unit = CalibrationUnit(seed)
        self.period_s = period_s
        self._cpu: List[float] = []
        self._wall = 0.0
        self._deadline: Optional[float] = None
        self._ticking = False
        #: Every closed interval's factors, for the host block.
        self.history: List[Interval] = []
        for _ in range(50):  # page in, settle the allocator
            self.unit.run()
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._ticking:  # a tick that overran its period: skip one
            return
        self._ticking = True
        wall = time.perf_counter()
        cpu = time.thread_time()
        try:
            self.unit.run()
        finally:
            self._ticking = False
        self._cpu.append(time.thread_time() - cpu)
        self._wall += time.perf_counter() - wall
        if self._deadline is not None and wall > self._deadline:
            self._deadline = None
            raise SessionTimeout("measured interval overran its deadline")

    def start(self, timeout_s: Optional[float] = None) -> None:
        self._cpu, self._wall = [], 0.0
        self._deadline = (
            None if timeout_s is None else time.perf_counter() + timeout_s
        )
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> Interval:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._deadline = None
        cpu = self._cpu
        if cpu:
            # The mean, because a session's time is the sum of its parts;
            # minus the top 2 %, where a unit caught a page fault or a
            # migration rather than the host's speed.
            kept = sorted(cpu)[: max(1, len(cpu) - len(cpu) // 50)]
            interval = Interval(
                samples=len(cpu),
                factor=statistics.fmean(kept) / REFERENCE_UNIT_S,
                probe_cpu_s=sum(cpu),
                probe_wall_s=self._wall,
            )
        else:  # shorter than one period: nothing to correct with
            last = self.history[-1].factor if self.history else 1.0
            interval = Interval(0, last, 0.0, 0.0)
        self.history.append(interval)
        return interval

    def summary(self) -> Tuple[float, float]:
        """(median, coefficient of variation) of the intervals' factors."""
        factors = [i.factor for i in self.history if i.samples] or [1.0]
        return (
            statistics.median(factors),
            statistics.pstdev(factors) / statistics.fmean(factors),
        )

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@contextlib.contextmanager
def sampler_signal_blocked() -> Iterator[None]:
    """Start helper threads and processes inside this block: they
    inherit a mask that keeps the sampler's SIGALRM on the main thread
    (the kernel may otherwise interrupt any thread's system call)."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def correct(
    elapsed_s: float,
    on_cpu_s: float,
    steal_s: float,
    factor: float,
    parallel: int = 1,
) -> float:
    """``elapsed_s`` as the reference host, undisturbed, would take it.

    ``on_cpu_s`` is the summed CPU time of every session process over
    the interval, ``steal_s`` the time the hypervisor withheld from the
    whole VM, and ``parallel`` how many of those processes can run at
    once (the smaller of their number and the CPU count).

    Steal can have delayed the session by no more than the time its
    ``parallel`` slots were not executing, so it is capped there (the
    rest hit a CPU the session was not using).  ``(on_cpu + steal) /
    parallel``, capped at ``elapsed_s``, is then the share of the
    interval in which work, rather than a poll sleep, set the pace.  Of
    that share only ``on_cpu / (on_cpu + steal)`` was spent executing,
    and what executed ran ``factor`` times slower than on the reference
    host.  The sleeping remainder is left as it is.
    """
    parallel = max(1, parallel)
    on_cpu_s = max(0.0, on_cpu_s)
    steal_s = min(
        max(0.0, steal_s), max(0.0, parallel * elapsed_s - on_cpu_s)
    )
    wanted = on_cpu_s + steal_s
    if wanted <= 0.0:
        return elapsed_s
    busy = min(elapsed_s, wanted / parallel)
    executing = busy * on_cpu_s / wanted
    return (elapsed_s - busy) + executing / factor


# -- /proc accounting -----------------------------------------------------------
def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # comm may contain spaces/parens: fields start after the last ')'.
    return raw[raw.rfind(")") + 2:].split()


def descendants(root: Optional[int] = None) -> List[int]:
    """Pids of every live descendant of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(entry))
    found: List[int] = []
    frontier = [root]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def cpu_seconds(pids: Iterable[int]) -> float:
    """user+sys CPU seconds of this process plus ``pids`` (its children).

    Own time comes from the nanosecond process clock; children are read
    from ``/proc/<pid>/stat`` (clock-tick resolution).  A pid that has
    gone counts as zero, so read children while they are alive.
    """
    total = time.process_time()
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Largest peak resident set among this process and ``pids``, MiB."""
    peak_kb = 0.0
    for pid in [os.getpid(), *pids]:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, float(line.split()[1]))
                        break
        except OSError:
            continue
    return peak_kb / 1024.0


def _cpu_jiffies() -> Tuple[int, int]:
    """(steal, total) jiffies of the aggregate ``cpu`` line."""
    with open("/proc/stat") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


def steal_seconds() -> float:
    """CPU seconds the hypervisor has withheld from this VM so far."""
    return _cpu_jiffies()[0] / _CLK_TCK


def _filesystem_of(path: str) -> str:
    best, fstype = "", "unknown"
    real = os.path.realpath(path)
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _, mount, kind = line.split()[:3]
                inside = real == mount or real.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


class HostWatch:
    """The host block of a result: what the machine was doing meanwhile."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.loadavg_start = os.getloadavg()
        self._jiffies_start = _cpu_jiffies()

    def block(self, sampler: SpeedSampler) -> Dict[str, object]:
        steal, total = _cpu_jiffies()
        delta_total = max(1, total - self._jiffies_start[1])
        speed_factor, probe_cv = sampler.summary()
        return {
            "nproc": os.cpu_count(),
            "loadavg_start": [round(v, 2) for v in self.loadavg_start],
            "loadavg_end": [round(v, 2) for v in os.getloadavg()],
            "steal_share": (steal - self._jiffies_start[0]) / delta_total,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {
                name: os.environ.get(name)
                for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")
            },
            "scratch_fs": _filesystem_of(self.scratch),
            "reference_unit_s": REFERENCE_UNIT_S,
            "sample_period_s": sampler.period_s,
            "speed_factor": speed_factor,
            "probe_cv": probe_cv,
        }
