"""Declarative fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultEvent` occurrences plus the
policy knobs that govern recovery (degradation on PCH loss, the SECDED
double-bit fraction).  Plans are *data*: building one performs no side
effect, and the same ``(FaultPlan, seed)`` pair always produces the same
simulated outcome — scheduled events fire at fixed cycles, and the only
probabilistic element (per-beat data corruption) is driven by a counter-
based hash (:mod:`repro.faults.ecc`) rather than by stateful RNG, so the
vector-tier and legacy loops observe identical fault behaviour.

Event kinds
-----------

``PCH_OFFLINE``
    The pseudo-channel stops servicing at ``at`` (hard failure).  With
    ``plan.degrade`` the fabric masks the dead channel: queued and
    in-flight requests are NACKed back to their masters and the address
    map remaps the dead channel's traffic onto survivors.

``PCH_SLOW``
    Refresh storm / thermal throttle: the channel's service time is
    multiplied by ``factor`` for ``duration`` cycles and its banks are
    parked (no activates) for the first ``duration / factor`` cycles.

``LINK_STALL``
    A lateral-bus cut (segmented fabric) or distribution-network stage
    (MAO/ideal) transmits nothing for ``duration`` cycles.

``DATA_CORRUPT``
    Read data beats leaving the channel flip bits with probability
    ``rate`` per beat for ``duration`` cycles; a SECDED model classifies
    each corrupted beat as corrected (single bit) or uncorrectable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError


class FaultKind(enum.Enum):
    """The modelled failure modes."""

    PCH_OFFLINE = "pch-offline"
    PCH_SLOW = "pch-slow"
    LINK_STALL = "link-stall"
    DATA_CORRUPT = "data-corrupt"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault occurrence.

    Parameters
    ----------
    kind:
        The failure mode.
    at:
        Fabric cycle the fault manifests.
    pch:
        Target pseudo-channel (``PCH_OFFLINE`` / ``PCH_SLOW`` /
        ``DATA_CORRUPT``); ``None`` means *all* channels for
        ``DATA_CORRUPT`` and is invalid for the other PCH kinds.
    cut:
        Target lateral cut index for ``LINK_STALL`` (the bus pair between
        switches ``cut`` and ``cut + 1``); ``None`` stalls every cut.
    duration:
        Cycles the fault persists (ignored for ``PCH_OFFLINE``, which is
        permanent).
    factor:
        Timing multiplier for ``PCH_SLOW`` (2.0 = every access takes
        twice as long).
    rate:
        Per-beat corruption probability for ``DATA_CORRUPT``.
    """

    kind: FaultKind
    at: int
    pch: Optional[int] = None
    cut: Optional[int] = None
    duration: int = 0
    factor: float = 2.0
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigError(f"fault cycle must be >= 0, got {self.at}")
        if self.kind in (FaultKind.PCH_OFFLINE, FaultKind.PCH_SLOW) \
                and self.pch is None:
            raise ConfigError(f"{self.kind.value} requires a target pch")
        if self.kind in (FaultKind.PCH_SLOW, FaultKind.LINK_STALL,
                         FaultKind.DATA_CORRUPT) and self.duration <= 0:
            raise ConfigError(f"{self.kind.value} requires duration > 0")
        if self.kind is FaultKind.PCH_SLOW and self.factor <= 1.0:
            raise ConfigError("slow-down factor must be > 1.0")
        if self.kind is FaultKind.DATA_CORRUPT \
                and not 0.0 < self.rate <= 1.0:
            raise ConfigError("corruption rate must be in (0, 1]")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; round-trips bit-exactly through
        :meth:`from_dict` (enforced by the hypothesis property tests —
        the fuzz corpus depends on it)."""
        return {
            "kind": self.kind.value,
            "at": self.at,
            "pch": self.pch,
            "cut": self.cut,
            "duration": self.duration,
            "factor": self.factor,
            "rate": self.rate,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEvent":
        try:
            kind = FaultKind(data["kind"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad fault event dict: {exc}") from exc
        return cls(
            kind=kind,
            at=int(data["at"]),
            pch=None if data.get("pch") is None else int(data["pch"]),
            cut=None if data.get("cut") is None else int(data["cut"]),
            duration=int(data.get("duration", 0)),
            factor=float(data.get("factor", 2.0)),
            rate=float(data.get("rate", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seedable schedule of fault events.

    ``seed`` drives the counter-hash behind the ECC corruption model;
    ``degrade`` selects the recovery policy when a PCH goes offline
    (mask + remap vs. let the watchdog catch the loss);
    ``dbit_fraction`` is the fraction of corrupted beats that flip two
    bits (uncorrectable under SECDED) instead of one.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    degrade: bool = True
    dbit_fraction: float = 0.1

    def __init__(self, events: Sequence[FaultEvent] = (), seed: int = 0,
                 degrade: bool = True, dbit_fraction: float = 0.1) -> None:
        # Frozen dataclass with a list-friendly constructor: normalize the
        # event sequence to a time-sorted tuple so plans hash/compare by
        # value and the injector can rely on firing order.
        if not 0.0 <= dbit_fraction <= 1.0:
            raise ConfigError("dbit_fraction must be in [0, 1]")
        object.__setattr__(self, "events",
                           tuple(sorted(events, key=lambda e: e.at)))
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "degrade", bool(degrade))
        object.__setattr__(self, "dbit_fraction", float(dbit_fraction))

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; ``FaultPlan.from_dict(plan.to_dict()) ==
        plan`` holds bit-exactly (events re-sort stably by cycle, and the
        constructor already normalized the order)."""
        return {
            "events": [e.to_dict() for e in self.events],
            "seed": self.seed,
            "degrade": self.degrade,
            "dbit_fraction": self.dbit_fraction,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            events=[FaultEvent.from_dict(e) for e in data.get("events", ())],
            seed=int(data.get("seed", 0)),
            degrade=bool(data.get("degrade", True)),
            dbit_fraction=float(data.get("dbit_fraction", 0.1)),
        )

    @property
    def offline_pchs(self) -> List[int]:
        """PCHs this plan takes offline, in event order."""
        return [e.pch for e in self.events
                if e.kind is FaultKind.PCH_OFFLINE]

    def describe(self) -> str:
        """One line per event, for reports and logs."""
        lines = []
        for e in self.events:
            tgt = f"pch {e.pch}" if e.pch is not None else (
                f"cut {e.cut}" if e.cut is not None else "all")
            extra = ""
            if e.kind is FaultKind.PCH_SLOW:
                extra = f" x{e.factor:g} for {e.duration}"
            elif e.kind is FaultKind.LINK_STALL:
                extra = f" for {e.duration}"
            elif e.kind is FaultKind.DATA_CORRUPT:
                extra = f" rate {e.rate:g} for {e.duration}"
            lines.append(f"@{e.at}: {e.kind.value} {tgt}{extra}")
        return "\n".join(lines) if lines else "(no faults)"
