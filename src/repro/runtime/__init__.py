"""Crash-safe execution runtime for long-running harness work.

The simulator itself became fault-tolerant in :mod:`repro.faults`; this
package makes the *harness that runs it* fault-tolerant:

* :mod:`repro.runtime.pool` — :class:`SupervisedPool`, a process pool
  that survives ``BrokenProcessPool`` by re-running each task lost with
  the pool alone in its own worker, with structured
  :class:`TaskFailure`/:class:`SweepOutcome` reporting,
* :mod:`repro.runtime.journal` — :class:`RunJournal`, a durable
  append-only JSONL progress record enabling exact resume of
  interrupted fuzz campaigns,
* :mod:`repro.runtime.signals` — :class:`GracefulShutdown`, two-stage
  SIGINT/SIGTERM handling for clean checkpoint-and-exit.

Each long-lived path has one checkpoint.  Experiment sweeps
(:func:`repro.experiments.parallel.parallel_sweep`, the chaos suite)
run on the supervised pool and checkpoint every finished point into the
content-addressed result cache (:mod:`repro.sim.cache`), so re-running
an interrupted command under ``REPRO_SIM_CACHE_DIR`` resumes it;
``repro-hbm fuzz`` checkpoints into its :class:`RunJournal`; and
``repro-hbm serve`` writes through its result store.
"""

from __future__ import annotations

from .journal import JOURNAL_VERSION, JournalState, RunJournal, load_journal
from .pool import SupervisedPool, SweepOutcome, TaskFailure
from .signals import GracefulShutdown

__all__ = [
    "JOURNAL_VERSION", "JournalState", "RunJournal", "load_journal",
    "SupervisedPool", "SweepOutcome", "TaskFailure",
    "GracefulShutdown",
]
