"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the reproduction with a single ``except``
clause while still distinguishing configuration mistakes from protocol
violations detected inside the simulation.

Hierarchy::

    ReproError
    ├── ConfigError            invalid user-supplied configuration
    ├── AxiProtocolError       AXI3 protocol violation in a transaction
    ├── AddressError           address outside capacity / misaligned
    ├── RoutingError           interconnect cannot route a transaction
    ├── SimulationError        internal simulator invariant violated (a bug)
    │   ├── ObserverError      an observer hook raised during completion
    │   └── SanitizerError     runtime sanitizer caught an invariant break
    │       ├── OrderingViolation        same-ID responses out of issue order
    │       ├── ConservationViolation    issued/completed accounting broken
    │       ├── CreditLeak               credit or reorder-slot leak
    │       ├── TimestampViolation       non-monotonic transaction timestamps
    │       ├── BankStateViolation       column access to a closed/wrong row
    │       └── RetryConsistencyViolation  retry/watchdog bookkeeping broken
    ├── ResourceError          design exceeds FPGA resource capacity
    ├── SweepError             supervised sweep finished with holes/interrupt
    └── FaultError             *modelled* hardware misbehaving (repro.faults)
        ├── TransactionTimeout a watched transaction exceeded its deadline
        ├── DeadlockError      global progress watchdog: no forward progress
        └── UnrecoverableDataError  uncorrectable data corruption (SECDED)

The split between :class:`SimulationError` and :class:`FaultError` is
deliberate: the former always indicates a *simulator* bug (a beat retired
twice, conservation accounting broken), while the latter reports modelled
*hardware* failure behaviour injected through a
:class:`~repro.faults.FaultPlan` — a dead pseudo-channel, a stalled link,
corrupted data.  Resilience experiments catch ``FaultError`` and keep
going; nothing should ever catch ``SimulationError`` and keep going.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class AxiProtocolError(ReproError):
    """An AXI transaction violates the AXI3 protocol rules.

    Raised for illegal burst lengths (``> 16`` for AXI3 INCR), transactions
    crossing a 4 KB address boundary, zero-length bursts, or misaligned
    addresses.
    """


class AddressError(ReproError):
    """An address is outside the device's HBM capacity or misaligned."""


class RoutingError(ReproError):
    """The interconnect cannot route a transaction to its destination."""


class SimulationError(ReproError):
    """Internal invariant of the cycle simulation was violated.

    This indicates a bug in the simulator (e.g. a beat retired twice or a
    conservation check failing), never a user error and never modelled
    hardware misbehaviour (that is :class:`FaultError`).
    """


class ObserverError(SimulationError):
    """An observer's ``on_complete`` hook raised.

    The engine finishes the conservation accounting for the whole
    completion batch before raising this, so the failure of an
    *observer* (a trace recorder, a live plot) can never corrupt the
    simulation's own bookkeeping.  The original exception is attached as
    ``__cause__``.
    """


class SanitizerError(SimulationError):
    """The runtime sanitizer (:mod:`repro.check.sanitizer`) caught an
    invariant violation.

    Every subclass carries a ``context`` dict with the minimal repro
    recipe — fabric name, the :class:`~repro.sim.config.SimConfig`, the
    fault plan (if any), the cycle, and the offending transaction — so a
    failure in a long sweep can be reproduced as a single run.  The
    engine's observer isolation deliberately does *not* wrap these in
    :class:`ObserverError`: a sanitizer finding is a simulator bug, not
    an observer crash.
    """

    def __init__(self, message: str, context: dict | None = None) -> None:
        self.context = dict(context or {})
        if self.context:
            detail = "; ".join(f"{k}={v}" for k, v in self.context.items())
            message = f"{message} [{detail}]"
        super().__init__(message)


class OrderingViolation(SanitizerError):
    """Same-AXI-ID read responses were delivered out of issue order on a
    fabric/configuration that guarantees in-order same-ID delivery."""


class ConservationViolation(SanitizerError):
    """Transaction conservation broke: a completion arrived for a
    transaction that was never issued (or already finished), or the
    issued/completed/retired/in-flight ledger does not balance."""


class CreditLeak(SanitizerError):
    """Outstanding-transaction credits or reorder-buffer read slots
    leaked (went negative, exceeded their bound, or remained claimed
    after a successful drain)."""


class TimestampViolation(SanitizerError):
    """Transaction timestamps are non-monotonic (completion before
    issue, or delivery cycles moving backwards)."""


class BankStateViolation(SanitizerError):
    """The DRAM bank model performed an illegal row operation — a column
    access claimed a row hit on a closed or different row, or an
    activate violated the bank's earliest-activate bound."""


class RetryConsistencyViolation(SanitizerError):
    """Retry/watchdog bookkeeping is inconsistent — a completion's
    attempt ordinal does not match its issue, or a NACKed transaction
    was neither retried nor counted unrecoverable."""


class ResourceError(ReproError):
    """A design does not fit the FPGA's resource capacity."""


class SweepError(ReproError):
    """A supervised sweep (:mod:`repro.runtime`) did not complete cleanly.

    Raised by strict callers when a :class:`~repro.runtime.SweepOutcome`
    carries task failures (poisoned/timed-out/crashed points) or was
    interrupted before every point ran.  The outcome — including every
    result that *did* complete — is attached as ``outcome``, so nothing
    already computed is lost to the raise.
    """

    def __init__(self, message: str, outcome=None) -> None:
        self.outcome = outcome
        super().__init__(message)


class FaultError(ReproError):
    """Modelled hardware misbehaved (base class of the fault model).

    Raised (or collected) by the :mod:`repro.faults` subsystem when an
    injected fault manifests: this is *simulated hardware failing as
    instructed*, not a simulator bug.
    """


class TransactionTimeout(FaultError):
    """A watched transaction exceeded ``txn_timeout_cycles``.

    The per-transaction watchdog turns silently-lost transactions (for
    example requests queued behind a pseudo-channel that went offline
    without a degradation policy) into a typed, diagnosable error instead
    of an apparent hang.
    """


class DeadlockError(FaultError):
    """The global progress watchdog saw in-flight work but no completions
    for ``progress_timeout_cycles`` — a deadlock, as opposed to the long
    (but provably empty) quiescent stretches the vector tier skips."""


class UnrecoverableDataError(FaultError):
    """Data corruption exceeded the SECDED code's correction capability
    and retries were exhausted (or disabled)."""
