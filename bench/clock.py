"""The benchmark's clock and its host-speed reference.

**Run clock.**  ``now()`` is ``perf_counter`` minus the time this process
demonstrably spent off the CPU against its will.  The reference host is a
2-vCPU VM whose hypervisor deschedules the vCPU in bursts: in a bad minute a
busy loop saw 1086 gaps of 2-50 ms, 8 s of every 15 s, and a 1 s simulation
cell read anywhere from 1.4 s to 7.5 s (inter-quartile spread 109 % of the
median).  On a quiet host the two clocks agree to 1-2 %.

The gaps are found without a second thread: a 1 kHz ``ITIMER_REAL`` delivers
``SIGALRM`` to the main thread, whose handler runs between two bytecodes of
whatever is being measured.  Two handler calls more than ``SLACK`` intervals
apart mean the interpreter executed no bytecode in between.  Of such a
stretch only the part in which the process's CPU time (``process_time``) did
not advance is taken off, and only when its voluntary context switches
(``ru_nvcsw``) did not go up either:

* a long C call or a garbage-collection pass (full collections of the
  simulator's heap take 15-30 ms, compiling a module on import 5-20 ms)
  burns CPU time, so it stays on the clock;
* blocking I/O gives the CPU up voluntarily, so it stays on the clock;
* a descheduled vCPU does neither -- this guest accounts steal, so CPU time
  stands still -- and is summed in ``stolen``.

On a guest that does not account steal nothing is ever taken off and the run
clock is ``perf_counter``: the clock errs towards noise, never towards hiding
the program's own time.  Every metric is printed with its raw
``perf_counter`` reading and the run's stolen share beside it, and
``compare.py`` reports a metric as unresolved when that share is large.

**Host speed.**  Apart from the gaps the VM's speed drifts by +-10 % over
tens of seconds, so whole runs land in a fast or a slow phase.  ``HostSpeed``
runs a fixed pure-Python kernel (heap, dict, attribute, float and call
traffic, ~20 ms) between the units of a run; a unit's time is scaled by
``REFERENCE_S`` over the mean of the kernel times on either side of it, i.e.
reported as what it would take at the reference host's usual speed.  Over
eight runs of one seed in a noisy hour this took the spread of fig5_grid's
unit time from 14 % to 4 %.  The kernel is benchmark code, so nothing the
program does can move it.
"""

from __future__ import annotations

import heapq
import resource
import signal
import time

INTERVAL = 0.001
SLACK = 3.0
REFERENCE_S = 0.0215   # the kernel between units on the reference host, median of ten runs
KERNEL_STEPS = 50_000


class RunClock:
    def __init__(self) -> None:
        self.stolen = 0.0
        self._last = time.perf_counter()   # last time any bytecode of ours was seen running
        self._mark_wall = self._last       # where CPU time and switches were last read
        self._mark_cpu = 0.0
        self._mark_switches = 0
        self._previous = None
        self._running = False

    def _mark(self, now: float, gap: bool) -> None:
        """Read CPU time and switches; after a gap, take off what the process
        spent off the CPU since the last reading unless it blocked itself."""
        cpu = time.process_time()
        switches = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
        if gap and switches == self._mark_switches:
            self.stolen += max(0.0, (now - self._mark_wall) - (cpu - self._mark_cpu))
        self._mark_wall, self._mark_cpu, self._mark_switches = now, cpu, switches

    def _tick(self, _signum, _frame) -> None:
        now = time.perf_counter()
        gap = now - self._last > SLACK * INTERVAL
        self._last = now
        self._mark(now, gap)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        self._mark(self._last, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._running = False
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """Seconds this process has been running (arbitrary origin)."""
        now = time.perf_counter()
        if self._running:
            # The handler can interrupt this only at a call: ``_last`` is read
            # and written with none between, so no gap is counted twice.
            gap = now - self._last > SLACK * INTERVAL
            self._last = now
            if gap:  # one the timer has not reported yet
                self._mark(now, True)
        return now - self.stolen


CLOCK = RunClock()
now = CLOCK.now


class Took:
    """How long one or more timed calls took: ``run`` seconds on the run
    clock and ``raw`` seconds of ``perf_counter``; the difference is what was
    taken off as stolen."""

    __slots__ = ("run", "raw")

    def __init__(self, run: float = 0.0, raw: float = 0.0) -> None:
        self.run = run
        self.raw = raw

    def __add__(self, other: "Took") -> "Took":
        return Took(self.run + other.run, self.raw + other.raw)


def took(fn) -> tuple:
    """Call ``fn``; return (its result, Took)."""
    raw_start = time.perf_counter()
    run_start = now()
    result = fn()
    run = now() - run_start
    return result, Took(run, time.perf_counter() - raw_start)


class _Cell:
    __slots__ = ("count", "level", "queue", "table")

    def __init__(self) -> None:
        self.count = 0
        self.level = 1.0
        self.queue: list = []
        self.table: dict = {}

    def step(self, i: int) -> None:
        self.count += i & 3
        self.level = self.level * 1.0000001 + 0.5
        self.table[i & 1023] = self.level
        heapq.heappush(self.queue, (i * 7919) % 10007)
        if i & 1:
            heapq.heappop(self.queue)


def kernel_seconds() -> float:
    """Run-clock seconds for the fixed reference kernel.  It allocates no
    container, so it never triggers a collection of the program's heap."""
    cell = _Cell()
    step = cell.step
    start = now()
    for i in range(KERNEL_STEPS):
        step(i)
    return now() - start


class HostSpeed:
    """Scale factors that turn measured seconds into seconds at the
    reference host's usual speed.  ``factor()`` is called once after each
    unit: the kernel run it makes closes that unit and opens the next."""

    def __init__(self) -> None:
        kernel_seconds()  # the interpreter specialises the kernel's bytecode
        self.samples = [kernel_seconds()]
        self.scale = REFERENCE_S / self.samples[0]

    def factor(self) -> float:
        self.samples.append(kernel_seconds())
        self.scale = REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2.0)
        return self.scale
