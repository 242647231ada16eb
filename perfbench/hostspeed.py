"""Host-speed correction: a fixed kernel timed all through a run.

The benchmark runs on a shared host whose speed switches between two
states, for half a second to tens of seconds at a time: on a 2-vCPU
Xeon VM a fixed kernel took about 14 ms in one and 24 ms in the other,
and a short simulation run timed right beside it 48 ms and 75 ms
(correlation 0.8 over 600 pairs).  Process CPU time moves with it, so
neither CPU time nor a longer run removes the drift.  A run therefore
times a fixed pure-Python kernel, shaped like the simulator's hot path
(slotted objects, method calls, a deque and a heap), in short sampling
events all through the run, and scales each stretch between two events
by

    REFERENCE_S / (mean kernel seconds of the two events)

so a part's scaled time is the time it would have taken on a host where
the kernel takes ``REFERENCE_S``.  A slow stretch slows the work and the
kernel alike and cancels out.  The kernel imports nothing of the
program, so no change to ``src/`` can move it.  Sampling time never
counts: the clocks stop while the kernel runs.
"""

from __future__ import annotations

import heapq
import os
import signal
import time
from collections import deque
from contextlib import contextmanager
from typing import List, Sequence

#: Seconds one kernel call takes on the host the benchmark was tuned on
#: (2-vCPU Xeon VM, its slower state).  Scaled times read as seconds on
#: that host; the value only sets the scale.
REFERENCE_S = 0.008
#: Kernel loop iterations: about ``REFERENCE_S`` on that host.
KERNEL_STEPS = 6_500
#: Seconds between sampling events: the kernel takes about a tenth of a
#: run.
SAMPLE_EVERY_S = 0.08
#: Most samples in one event.
MAX_BURST = 100


class _Bank:
    __slots__ = ("open_row", "ready", "hits")

    def __init__(self) -> None:
        self.open_row = -1
        self.ready = 0
        self.hits = 0

    def access(self, row: int, now: int) -> int:
        start = now if now > self.ready else self.ready
        if row == self.open_row:
            self.hits += 1
            self.ready = start + 2
        else:
            self.open_row = row
            self.ready = start + 9
        return self.ready


def kernel(steps: int = KERNEL_STEPS) -> int:
    """A fixed, deterministic amount of interpreter work; returns a
    checksum."""
    banks = [_Bank() for _ in range(16)]
    pending: deque = deque()
    heap: List[tuple] = []
    x = 12345
    done = 0
    for now in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        pending.append(((x >> 8) & 15, (x >> 12) & 63))
        if len(pending) > 8:
            bank, row = pending.popleft()
            heapq.heappush(heap, (banks[bank].access(row, now), bank))
        while heap and heap[0][0] <= now:
            heapq.heappop(heap)
            done += 1
    return done + sum(b.hits for b in banks)


@contextmanager
def _no_timer():
    """Hold off the sampling timer's signal (it arrives afterwards)."""
    old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old)


class HostSpeed:
    """Sampling events over one process's share of a run.

    An event is a burst of kernel samples: :meth:`catch_up`, called where
    nothing else of the benchmark runs, takes one for every
    ``SAMPLE_EVERY_S`` since the last event; :meth:`start_timer` takes
    one every ``SAMPLE_EVERY_S`` from a ``SIGALRM`` handler, between the
    bytecodes of whatever the main thread runs, so on the CPU the work
    runs on.

    Each CPU of the host switches state on its own, so a kernel timed on
    one CPU says little about work on another.  With ``cpus`` (for work
    in another process, free to run on any of them) an event pins the
    sampling thread to each of them in turn and takes the mean over
    all.
    """

    def __init__(self, cpus: Sequence[int] = ()) -> None:
        self.cpus = list(cpus)
        self.samples: List[float] = []
        self._paused = 0.0
        # Raw clock and scaled clock at the last event, and the mean
        # kernel seconds it measured.
        self._last = 0.0
        self._scaled = 0.0
        self._kernel = REFERENCE_S

    def _event(self, count: int) -> float:
        """Take ``count`` samples (one per CPU at least); returns their
        mean kernel seconds."""
        with _no_timer():
            start = time.perf_counter()
            taken = []
            for i in range(max(count, len(self.cpus))):
                if self.cpus:
                    os.sched_setaffinity(0, {self.cpus[i % len(self.cpus)]})
                begin = time.perf_counter()
                kernel()
                taken.append(time.perf_counter() - begin)
            if self.cpus:
                os.sched_setaffinity(0, self.cpus)
            now = start - self._paused
            opened = self._kernel
            self._kernel = sum(taken) / len(taken)
            if self.samples:
                self._scaled += (now - self._last) * factor(opened,
                                                            self._kernel)
            self.samples += taken
            self._paused += time.perf_counter() - start
            self._last = now
            return self._kernel

    def catch_up(self) -> float:
        """A burst of the samples due since the last event, one at
        least; returns their mean kernel seconds."""
        due = 1
        if self.samples:
            due = int((self.clock() - self._last) / SAMPLE_EVERY_S)
        return self._event(min(max(due, 1), MAX_BURST))

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, lambda _sig, _frame: self._event(1))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """``time.perf_counter`` without the sampling time."""
        with _no_timer():
            return time.perf_counter() - self._paused

    def scaled(self) -> float:
        """The scaled clock: the scaled stretches so far, and the open
        one scaled by the last event alone.  Call :meth:`catch_up` once
        before reading it."""
        with _no_timer():
            return self._scaled + ((self.clock() - self._last)
                                   * factor(self._kernel, self._kernel))


def factor(opened: float, closed: float) -> float:
    """Scale factor of a stretch between events that measured
    ``opened`` and ``closed`` kernel seconds."""
    return 2 * REFERENCE_S / (opened + closed)
