"""Watchdogs: turning silent loss into typed errors.

Two detectors guard a run (both off by default, enabled through
:class:`~repro.sim.config.SimConfig`):

* :class:`TransactionWatchdog` — every issued transaction must complete
  (or be NACKed for retry) within ``txn_timeout_cycles``.  A channel that
  silently swallows requests — e.g. a PCH taken offline without a
  degradation policy — therefore surfaces as a typed
  :class:`~repro.errors.TransactionTimeout` naming the stuck transaction,
  instead of a run that merely reports missing bandwidth or a drain that
  spins to its deadline.
* :class:`ProgressWatchdog` — the global deadlock detector: in-flight
  work with no completion for ``progress_timeout_cycles`` raises
  :class:`~repro.errors.DeadlockError`.  This deliberately distinguishes
  *deadlock* (work stuck) from *quiescence* (no work), which matters on
  the engine's vector tier where long quiescent stretches are legitimately
  skipped in one jump.

Both watchdogs are cycle-deterministic: they trip at an exact cycle
derived from issue/completion times, and the vector tier clamps its
clock jumps to the next deadline, so both loops raise identically.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

from ..axi.transaction import AxiTransaction
from ..errors import DeadlockError, TransactionTimeout


class TransactionWatchdog:
    """Per-transaction deadline tracker (lazy-deletion heap)."""

    __slots__ = ("timeout", "_heap", "_alive")

    def __init__(self, timeout: int) -> None:
        self.timeout = timeout
        #: (deadline, uid) min-heap; stale entries are dropped lazily.
        self._heap: List[Tuple[int, int]] = []
        #: uid -> (txn, armed deadline).  The deadline disambiguates a
        #: *re-armed* uid (retry resubmit) from its stale heap entries:
        #: matching on uid alone would resurrect the old, earlier deadline
        #: and time a retried transaction out against its first attempt.
        self._alive: Dict[int, Tuple[AxiTransaction, int]] = {}

    def note_issue(self, txn: AxiTransaction, cycle: int) -> None:
        """Arm (or re-arm, for a retry) the deadline of one transaction."""
        deadline = cycle + self.timeout
        self._alive[txn.uid] = (txn, deadline)
        heapq.heappush(self._heap, (deadline, txn.uid))

    def note_done(self, txn: AxiTransaction) -> None:
        """Disarm on completion or NACK (a retry re-arms at resubmit)."""
        self._alive.pop(txn.uid, None)

    def next_deadline(self) -> float:
        """Earliest armed deadline, ``inf`` when nothing is watched."""
        heap = self._heap
        alive = self._alive
        while heap:
            deadline, uid = heap[0]
            entry = alive.get(uid)
            if entry is not None and entry[1] == deadline:
                return deadline
            heapq.heappop(heap)
        return math.inf

    def check(self, cycle: int) -> None:
        """Raise :class:`TransactionTimeout` when a deadline has passed."""
        deadline = self.next_deadline()
        if deadline <= cycle:
            uid = self._heap[0][1]
            txn = self._alive[uid][0]
            raise TransactionTimeout(
                f"transaction {txn!r} saw no completion within "
                f"{self.timeout} cycles (issued {txn.issue_cycle}, "
                f"now {cycle}); pch {txn.pch} unresponsive?")

    @property
    def watched(self) -> int:
        return len(self._alive)


class ProgressWatchdog:
    """Global forward-progress detector."""

    __slots__ = ("timeout", "last_progress")

    def __init__(self, timeout: int) -> None:
        self.timeout = timeout
        self.last_progress = 0

    def note_progress(self, cycle: int) -> None:
        self.last_progress = cycle

    def deadline(self) -> int:
        return self.last_progress + self.timeout

    def check(self, cycle: int, in_flight: int) -> None:
        """Raise :class:`DeadlockError` on stalled in-flight work.

        ``in_flight`` is the number of transactions currently owed a
        completion; zero in-flight work is quiescence, never deadlock.
        """
        if in_flight > 0 and cycle >= self.deadline():
            raise DeadlockError(
                f"{in_flight} transactions in flight but no completion "
                f"for {self.timeout} cycles (last progress at "
                f"{self.last_progress}, now {cycle})")
