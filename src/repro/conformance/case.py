"""One sampled conformance-fuzz configuration, fully materialized.

A :class:`FuzzCase` binds a :class:`~repro.conformance.space.ParamSpace`
sample to everything the driver needs to run it: the platform variant,
the fabric, the traffic sources, the armed :class:`~repro.sim.SimConfig`
(watchdogs + sanitizer), and the :class:`~repro.faults.FaultPlan` the
``fault`` dimension names.  Cases serialize to JSON (the corpus format)
and rebuild bit-exactly: ``FuzzCase.from_dict(case.to_dict())`` yields a
case whose derived ``SimConfig`` and ``FaultPlan`` compare equal to the
originals — the dump embeds both derivations and cross-checks them on
load, so a corpus entry can never silently drift from the run it
minimized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from ..errors import ConfigError
from ..params import HbmPlatform
from ..sim import SimConfig
from ..faults.plan import FaultEvent, FaultKind, FaultPlan
from ..traffic import make_pattern_sources
from ..types import FabricKind, Pattern, RWRatio
from .. import make_fabric

#: Corpus/file-format version; bump on incompatible changes.
SCHEMA_VERSION = 1

#: Platform variants the ``platform`` dimension can select.  Geometry is
#: itself a fuzz axis: the 2-switch (8 PCH / 8 masters) variant keeps
#: runs cheap, the 4-switch one exercises longer lateral chains and a
#: masters/PCH ratio the hand-written grids never vary.
PLATFORMS: Dict[str, HbmPlatform] = {
    "small": HbmPlatform(num_pch=8, pch_capacity=64 * 1024 * 1024),
    "wide": HbmPlatform(num_pch=16, pch_capacity=64 * 1024 * 1024),
}

#: Fault-axis values: plan builders scaled to the case's horizon, in the
#: style of the chaos scenario library but targeted at fuzz-sized runs.
#: ``pch 1`` exists on every platform variant and is owned by master 1
#: under the single-channel patterns.
FAULT_KEYS = ("none", "offline", "offline-strict", "slow", "stall",
              "corrupt", "multi")


def _onset(cycles: int) -> int:
    return max(1, cycles // 3)


def build_fault_plan(key: str, cycles: int, seed: int) -> FaultPlan:
    """The fault plan a ``fault`` dimension value denotes (scaled to the
    run length, seeded for the ECC counter hash)."""
    onset = _onset(cycles)
    quarter = max(1, cycles // 4)
    if key == "none":
        return FaultPlan(seed=seed)
    if key == "offline":
        return FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=onset, pch=1)],
                         seed=seed, degrade=True)
    if key == "offline-strict":
        return FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=onset, pch=1)],
                         seed=seed, degrade=False)
    if key == "slow":
        return FaultPlan([FaultEvent(FaultKind.PCH_SLOW, at=onset, pch=1,
                                     duration=quarter, factor=3.0)],
                         seed=seed)
    if key == "stall":
        return FaultPlan([FaultEvent(FaultKind.LINK_STALL, at=onset,
                                     cut=None, duration=quarter)],
                         seed=seed)
    if key == "corrupt":
        return FaultPlan([FaultEvent(FaultKind.DATA_CORRUPT, at=onset,
                                     pch=None, duration=quarter, rate=0.05)],
                         seed=seed, dbit_fraction=0.1)
    if key == "multi":
        # The corruption window outlives the stall: a fully stalled
        # fabric transfers no beats, so corruption overlapping only the
        # stall would (correctly) produce almost no ECC events.
        return FaultPlan(
            [FaultEvent(FaultKind.LINK_STALL, at=onset, duration=quarter),
             FaultEvent(FaultKind.PCH_SLOW, at=onset + quarter // 2, pch=2,
                        duration=quarter, factor=2.5),
             FaultEvent(FaultKind.DATA_CORRUPT, at=onset, pch=None,
                        duration=2 * quarter, rate=0.02)],
            seed=seed, dbit_fraction=0.2)
    raise ConfigError(f"unknown fault key {key!r}; choose from {FAULT_KEYS}")


@dataclass(frozen=True)
class FuzzCase:
    """One fully specified conformance run."""

    fabric: FabricKind
    pattern: Pattern
    rw: RWRatio
    burst_len: int
    outstanding: int
    cycles: int
    warmup_div: int
    """Warmup is ``cycles // warmup_div`` (a ratio fuzzes cleanly across
    the cycles axis; an absolute value would not)."""

    fault: str
    platform_key: str
    seed: int
    """Traffic seed (and the fault plan's ECC hash seed)."""

    def __post_init__(self) -> None:
        if self.platform_key not in PLATFORMS:
            raise ConfigError(f"unknown platform {self.platform_key!r}")
        if self.fault not in FAULT_KEYS:
            raise ConfigError(f"unknown fault key {self.fault!r}")
        if self.warmup_div < 2:
            raise ConfigError("warmup_div must be >= 2")

    # -- derived run inputs --------------------------------------------------

    @property
    def platform(self) -> HbmPlatform:
        return PLATFORMS[self.platform_key]

    @property
    def warmup(self) -> int:
        return self.cycles // self.warmup_div

    @property
    def guard_cycles(self) -> int:
        """Watchdog deadline: generous enough that every *recoverable*
        disturbance in the fault library (3x slowdowns, capped-backoff
        retries, quarter-run stalls) clears it, while a genuinely dead
        channel with degradation off still trips it — the must-abort
        oracle depends on that separation."""
        return 4 * self.cycles + 4_000

    @property
    def drain_budget(self) -> int:
        """Cycle budget for post-run drain; exceeding it is a
        termination failure (lost transaction or livelock)."""
        return 40 * self.cycles + 60_000

    def sim_config(self, engine: str = "legacy") -> SimConfig:
        return SimConfig(
            cycles=self.cycles,
            warmup=self.warmup,
            outstanding=self.outstanding,
            engine=engine,
            sanitize=True,
            txn_timeout_cycles=self.guard_cycles,
            progress_timeout_cycles=self.guard_cycles,
        )

    def fault_plan(self) -> FaultPlan:
        return build_fault_plan(self.fault, self.cycles, self.seed)

    def build(self) -> Tuple[Any, List[Any]]:
        """Fresh (fabric, sources) for one run of this case."""
        platform = self.platform
        fab = make_fabric(self.fabric, platform)
        sources = make_pattern_sources(
            self.pattern, platform, burst_len=self.burst_len, rw=self.rw,
            address_map=fab.address_map, seed=self.seed)
        return fab, sources

    def label(self) -> str:
        return (f"{self.fabric.value}/{self.pattern.name}"
                f"/{self.rw.reads}:{self.rw.writes}/bl{self.burst_len}"
                f"/o{self.outstanding}/c{self.cycles}w{self.warmup_div}"
                f"/{self.fault}/{self.platform_key}/s{self.seed}")

    # -- space binding -------------------------------------------------------

    @classmethod
    def from_sample(cls, sample: Mapping[str, Any], seed: int = 0,
                    ) -> "FuzzCase":
        """Bind one :class:`ParamSpace` sample (string-valued, as the
        space declares it) to a runnable case."""
        r, w = str(sample["rw"]).split(":")
        return cls(
            fabric=FabricKind(sample["fabric"]),
            pattern=Pattern[str(sample["pattern"])],
            rw=RWRatio(int(r), int(w)),
            burst_len=int(sample["burst_len"]),
            outstanding=int(sample["outstanding"]),
            cycles=int(sample["cycles"]),
            warmup_div=int(sample["warmup_div"]),
            fault=str(sample["fault"]),
            platform_key=str(sample["platform"]),
            seed=seed,
        )

    def to_sample(self) -> Dict[str, Any]:
        """The space-shaped dict this case came from (used by the
        shrinker to walk dimensions)."""
        return {
            "fabric": self.fabric.value,
            "pattern": self.pattern.name,
            "rw": f"{self.rw.reads}:{self.rw.writes}",
            "burst_len": self.burst_len,
            "outstanding": self.outstanding,
            "cycles": self.cycles,
            "warmup_div": self.warmup_div,
            "fault": self.fault,
            "platform": self.platform_key,
        }

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Corpus JSON form.  Besides the sample itself the dump embeds
        the *derived* ``SimConfig`` and ``FaultPlan`` so a loaded entry
        can prove it still denotes the same run (cf. :meth:`from_dict`)."""
        return {
            "schema": SCHEMA_VERSION,
            "sample": self.to_sample(),
            "seed": self.seed,
            "sim_config": self.sim_config().to_dict(),
            "fault_plan": self.fault_plan().to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FuzzCase":
        if data.get("schema") != SCHEMA_VERSION:
            raise ConfigError(
                f"corpus schema {data.get('schema')!r} unsupported "
                f"(expected {SCHEMA_VERSION})")
        case = cls.from_sample(data["sample"], seed=int(data.get("seed", 0)))
        # Cross-check the embedded derivations: if the builders changed
        # since the entry was written, fail loudly instead of silently
        # replaying a different scenario than the one minimized.
        if "sim_config" in data:
            stored = SimConfig.from_dict(data["sim_config"])
            if stored != case.sim_config():
                raise ConfigError(
                    "corpus entry's stored SimConfig no longer matches its "
                    "rebuilt derivation — the case builders changed; "
                    "re-minimize or migrate the entry")
        if "fault_plan" in data:
            stored_plan = FaultPlan.from_dict(data["fault_plan"])
            if stored_plan != case.fault_plan():
                raise ConfigError(
                    "corpus entry's stored FaultPlan no longer matches its "
                    "rebuilt derivation — the fault library changed; "
                    "re-minimize or migrate the entry")
        return case
