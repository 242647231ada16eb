"""Worker-crash recovery tests for the supervised pool.

These tests kill real worker processes (``os._exit``) and raise from
them, then assert the supervision contract: the sweep completes,
survivors' results are intact, every task lost with a broken pool is
re-run alone, and the casualties surface as structured
:class:`~repro.runtime.TaskFailure` holes — never as a
``BrokenProcessPool`` traceback that discards finished work.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import SweepError
from repro.runtime import SupervisedPool, SweepOutcome, TaskFailure


def _square(x):
    return x * x


def _crash_on(x):
    """Kill the worker process for the marked item (simulated OOM kill)."""
    value, crash = x
    if crash:
        os._exit(137)
    return value * value


def _crash_once(x):
    """Kill the worker on the first attempt only: the marker file records
    that attempt, so the solo re-run completes (models a worker lost to
    something outside the task, such as a neighbour's OOM kill)."""
    value, marker = x
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(137)
    return value * value


def _crash_or_linger(x):
    """The crasher dies at once; the innocent sleeps long enough to be
    certainly in flight when it does."""
    value, crash = x
    if crash:
        os._exit(137)
    time.sleep(0.5)
    return value * value


def _raise_on(x):
    value, bad = x
    if bad:
        raise ValueError(f"deterministic failure for {value}")
    return value * value


class TestHappyPath:
    def test_map_preserves_order(self):
        outcome = SupervisedPool(workers=2).map(_square, list(range(8)))
        assert outcome.results == [x * x for x in range(8)]
        assert outcome.ok and not outcome.holes
        assert sorted(outcome.completed) == list(range(8))
        assert outcome.retries == 0 and outcome.rebuilds == 0

    def test_indices_subset_and_seeded_results(self):
        results = ["keep", None, None, "keep2"]
        outcome = SupervisedPool(workers=2).map(
            _square, [9, 2, 3, 9], indices=[1, 2], results=results)
        assert outcome.results == ["keep", 4, 9, "keep2"]
        assert outcome.total == 2

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SupervisedPool(workers=0)
        with pytest.raises(ValueError, match="one slot per item"):
            SupervisedPool(workers=2).map(_square, [1, 2], results=[None])


class TestCrashRecovery:
    def test_worker_kill_does_not_abort_the_sweep(self):
        """The acceptance scenario: one point SIGKILLs its worker; every
        other point completes and the casualty is a structured hole."""
        items = [(i, i == 3) for i in range(8)]
        outcome = SupervisedPool(workers=2).map(_crash_on, items)
        assert [outcome.results[i] for i in range(8) if i != 3] == \
               [i * i for i in range(8) if i != 3]
        assert outcome.holes == [3]
        failure = outcome.failures[0]
        assert failure.kind == "crash"
        assert "re-run alone" in failure.detail
        assert failure.attempts == 2
        assert outcome.rebuilds == 1 and outcome.retries >= 1

    def test_innocent_inflight_tasks_are_retried_not_failed(self):
        """Tasks co-resident with a crasher are lost with the pool but
        must be transparently re-run, not reported."""
        items = [(i, i == 0) for i in range(6)]
        outcome = SupervisedPool(workers=2).map(_crash_on, items)
        assert outcome.holes == [0]
        assert sorted(outcome.completed) == [1, 2, 3, 4, 5]

    def test_crash_beside_an_inflight_innocent_costs_one_rebuild(self):
        """Regression: every task in flight at a worker death used to be
        charged and re-dispatched together, so a slow innocent could die
        beside the crasher until its crash budget ran out.  Now each lost
        task re-runs alone: only the crasher is a hole, and the pool
        breaks exactly once."""
        items = [(0, True), (1, False)]
        outcome = SupervisedPool(workers=2).map(_crash_or_linger, items)
        assert outcome.holes == [0]
        assert outcome.failures[0].kind == "crash"
        assert outcome.results[1] == 1
        assert outcome.completed == [1]
        assert outcome.rebuilds == 1
        assert outcome.retries == 2

    def test_task_lost_once_completes_on_its_solo_rerun(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        items = [(i, marker if i == 2 else None) for i in range(5)]
        outcome = SupervisedPool(workers=2).map(_crash_once, items)
        assert outcome.results == [i * i for i in range(5)]
        assert not outcome.failures
        assert outcome.rebuilds == 1


class TestDeterministicErrors:
    def test_task_exception_fails_immediately_without_retry(self):
        """Simulations are deterministic: re-running a raise buys
        nothing, so kind='error' is terminal on the first attempt."""
        items = [(i, i == 2) for i in range(5)]
        outcome = SupervisedPool(workers=2).map(_raise_on, items)
        assert outcome.holes == [2]
        failure = outcome.failures[0]
        assert failure.kind == "error"
        assert "deterministic failure for 2" in failure.detail
        assert outcome.rebuilds == 0  # the pool never died

    def test_failure_str_is_actionable(self):
        failure = TaskFailure(index=4, task="(4, True)", kind="error",
                              detail="ValueError: boom", attempts=1)
        text = str(failure)
        assert "task[4]" in text and "error" in text and "boom" in text


class TestOutcomeContract:
    def test_require_complete_passes_through_when_ok(self):
        outcome = SupervisedPool(workers=2).map(_square, [1, 2, 3])
        assert outcome.require_complete() is outcome

    def test_require_complete_raises_with_outcome_attached(self):
        items = [(i, i == 0) for i in range(3)]
        outcome = SupervisedPool(workers=2).map(_crash_on, items)
        with pytest.raises(SweepError, match="sweep incomplete") as info:
            outcome.require_complete()
        # Completed work rides on the exception — never lost to the raise.
        assert info.value.outcome is outcome
        assert sorted(info.value.outcome.completed) == [1, 2]

    def test_summary_mentions_every_anomaly(self):
        outcome = SweepOutcome(total=5, results=[None] * 5)
        outcome.completed = [0, 1]
        outcome.failures = [TaskFailure(2, "t", "crash", "d", 2)]
        outcome.retries, outcome.rebuilds = 4, 2
        text = outcome.summary()
        for needle in ("2/5", "1 failed", "crash", "4 retries",
                       "2 pool rebuilds"):
            assert needle in text
