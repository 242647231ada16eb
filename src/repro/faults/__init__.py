"""Deterministic fault injection, detection, and recovery.

The resilience subsystem has four layers, each its own module:

* :mod:`repro.faults.plan` — declarative, seedable fault schedules
  (:class:`FaultPlan` / :class:`FaultEvent`): *what* goes wrong, *when*.
* :mod:`repro.faults.inject` — :class:`FaultInjector`, the engine-side
  binding that applies events to a live fabric at exact cycles.
* :mod:`repro.faults.ecc` / :mod:`repro.faults.watchdog` /
  :mod:`repro.faults.degrade` — the models: SECDED beat classification,
  timeout/deadlock detection, and dead-channel remapping.
* :mod:`repro.faults.chaos` — the experiment harness sweeping fault
  scenarios and reporting bandwidth retained, latency inflation, retries,
  and unrecoverable losses.

Everything is deterministic given ``(FaultPlan, seed)``: events fire at
fixed cycles and the only probabilistic element (beat corruption) is a
counter-based hash, so the engine's vector tier and legacy loop observe
bit-identical fault behaviour.
"""

from .degrade import DegradedMap, build_remap
from .ecc import (BEAT_CLEAN, BEAT_CORRECTED, BEAT_UNCORRECTABLE,
                  SecdedModel)
from .inject import FaultInjector
from .plan import FaultEvent, FaultKind, FaultPlan
from .watchdog import ProgressWatchdog, TransactionWatchdog

__all__ = [
    "BEAT_CLEAN",
    "BEAT_CORRECTED",
    "BEAT_UNCORRECTABLE",
    "DegradedMap",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "ProgressWatchdog",
    "SecdedModel",
    "TransactionWatchdog",
    "build_remap",
]
