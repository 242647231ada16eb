"""Supervised process-pool execution with crash recovery.

``concurrent.futures.ProcessPoolExecutor`` is all-or-nothing: one
OOM-killed worker raises :class:`BrokenProcessPool` out of ``pool.map``
and every other in-flight and queued task — hours of sweep work — is
gone.  :class:`SupervisedPool` replaces that with a dispatch loop built
on ``submit`` + a bounded in-flight window and one crash rule:

* when the shared pool breaks, it is killed (one *rebuild*) and every
  task that was in flight is re-run **alone**, in its own one-worker
  pool.  Simulations are deterministic, so that solo run is final: it
  returns a result, raises (``TaskFailure(kind="error")``), or kills its
  worker (``TaskFailure(kind="crash")``).  An innocent task that merely
  shared the pool with a crasher therefore always completes, and the
  crasher is charged exactly once.  The shared pool is rebuilt lazily
  for the rest of the queue.
* an ordinary exception from the task function in the shared pool is
  reported at once as ``TaskFailure(kind="error")`` — re-running a
  deterministic failure buys nothing.

Everything lands in a :class:`SweepOutcome`: ordered results, the set of
holes, and the supervision accounting (solo re-runs, pool rebuilds) —
partial results with explicit holes, mirroring the NACK-and-degrade
philosophy of :mod:`repro.faults`.  An interrupt (``KeyboardInterrupt``)
propagates to the caller after the workers are killed: the points
already handed to ``on_result`` stay checkpointed and no worker outlives
the sweep.  There is no per-task timeout: a simulation is bounded by its
cycle count, its drain limit and its watchdogs.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import SweepError


def _describe(item: Any, limit: int = 120) -> str:
    text = repr(item)
    return text if len(text) <= limit else text[: limit - 3] + "..."


@dataclass(frozen=True)
class TaskFailure:
    """One sweep point that permanently failed under supervision."""

    index: int
    """Position of the task in the submitted item sequence."""

    task: str
    """``repr`` of the item (truncated) — enough to re-run it by hand."""

    kind: str
    """``error`` (task function raised) or ``crash`` (killed its worker
    when re-run alone)."""

    detail: str
    attempts: int = 1

    def __str__(self) -> str:
        return (f"task[{self.index}] {self.kind} after {self.attempts} "
                f"attempt(s): {self.detail} ({self.task})")


@dataclass
class SweepOutcome:
    """Everything a supervised sweep produced, holes included."""

    total: int
    results: List[Any] = field(default_factory=list)
    """Input-ordered; slots of failed tasks hold ``None``.
    Check :attr:`failures` before trusting a ``None``."""

    completed: List[int] = field(default_factory=list)
    failures: List[TaskFailure] = field(default_factory=list)
    retries: int = 0
    """Tasks re-run alone after the shared pool broke."""
    rebuilds: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def holes(self) -> List[int]:
        return sorted(f.index for f in self.failures)

    def summary(self) -> str:
        bits = [f"{len(self.completed)}/{self.total} completed"]
        if self.failures:
            bits.append(f"{len(self.failures)} failed "
                        f"({', '.join(sorted({f.kind for f in self.failures}))})")
        if self.retries:
            bits.append(f"{self.retries} retries")
        if self.rebuilds:
            bits.append(f"{self.rebuilds} pool rebuilds")
        return ", ".join(bits)

    def require_complete(self) -> "SweepOutcome":
        """Raise :class:`~repro.errors.SweepError` unless every task
        completed; the outcome rides on the exception so completed work
        is never lost to the raise."""
        if self.ok:
            return self
        lines = [f"sweep incomplete: {self.summary()}"]
        lines += [f"  {f}" for f in self.failures]
        raise SweepError("\n".join(lines), outcome=self)


def _kill_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Hard-stop a pool: terminate workers, discard the executor."""
    if pool is None:
        return
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except OSError:  # pragma: no cover — already dead
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover — broken pools may raise
        pass


def _run_solo(fn: Callable[[Any], Any], item: Any) -> Tuple[str, Any]:
    """Run one task alone in a one-worker pool.

    Returns ``("ok", value)``, ``("error", detail)`` or
    ``("crash", detail)``."""
    pool = ProcessPoolExecutor(max_workers=1)
    try:
        return "ok", pool.submit(fn, item).result()
    except BrokenProcessPool:
        return "crash", "killed its worker when re-run alone"
    except Exception as exc:  # noqa: BLE001 — reported, not raised
        return "error", f"{type(exc).__name__}: {exc}"
    finally:
        _kill_pool(pool)


class SupervisedPool:
    """Crash-supervised process-pool mapper (see module docstring).

    ``workers`` fixes both the pool size and the in-flight window: at
    most ``workers`` tasks are submitted at a time, so a pool break
    loses at most ``workers`` tasks to their solo re-runs.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any], *,
            indices: Optional[Sequence[int]] = None,
            results: Optional[List[Any]] = None,
            on_result: Optional[Callable[[int, Any], None]] = None,
            ) -> SweepOutcome:
        """Map ``fn`` over ``items`` under supervision.

        ``indices`` restricts execution to a subset of positions (the
        cache layer skips already-satisfied points); ``results`` seeds
        the outcome's result list (must have ``len(items)`` slots).
        ``on_result(index, value)`` fires the moment each task completes
        — the streaming-checkpoint hook (``cache.put``).
        """
        items = list(items)
        todo = list(range(len(items))) if indices is None else list(indices)
        outcome = SweepOutcome(
            total=len(todo),
            results=(list(results) if results is not None
                     else [None] * len(items)))
        if len(outcome.results) != len(items):
            raise ValueError("results seed must have one slot per item")

        queue: Deque[int] = deque(todo)
        pool: Optional[ProcessPoolExecutor] = None
        inflight: Dict[Future[Any], int] = {}

        def record_result(i: int, value: Any) -> None:
            outcome.results[i] = value
            outcome.completed.append(i)
            if on_result is not None:
                on_result(i, value)

        def record_failure(i: int, kind: str, detail: str,
                           attempts: int) -> None:
            outcome.failures.append(TaskFailure(
                index=i, task=_describe(items[i]), kind=kind,
                detail=detail, attempts=attempts))

        def settle(future: Future[Any], lost: List[int]) -> None:
            i = inflight.pop(future)
            try:
                value = future.result()
            except BrokenProcessPool:
                lost.append(i)
            except Exception as exc:  # noqa: BLE001 — a finding
                record_failure(i, "error", f"{type(exc).__name__}: {exc}",
                               attempts=1)
            else:
                record_result(i, value)

        try:
            while queue or inflight:
                lost: List[int] = []
                while queue and len(inflight) < self.workers:
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=self.workers)
                    i = queue.popleft()
                    try:
                        inflight[pool.submit(fn, items[i])] = i
                    except BrokenProcessPool:
                        lost.append(i)
                        break
                if not lost:
                    done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in done:
                        settle(future, lost)
                    if not lost:
                        continue
                # The shared pool broke: everything still in it is lost.
                for future in list(inflight):
                    if future.done():
                        settle(future, lost)
                    else:
                        lost.append(inflight.pop(future))
                _kill_pool(pool)
                pool = None
                outcome.rebuilds += 1
                for i in sorted(lost):
                    outcome.retries += 1
                    status, payload = _run_solo(fn, items[i])
                    if status == "ok":
                        record_result(i, payload)
                    else:
                        record_failure(i, status, payload, attempts=2)
        finally:
            _kill_pool(pool)
        return outcome
