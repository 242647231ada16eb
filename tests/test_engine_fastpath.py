"""Differential tests of the engine tiers (legacy / vector).

The vector tier (per-component due times, clock jumps between event
horizons) claims to be an *optimization, never a model change*: for
every configuration the :class:`~repro.sim.stats.SimReport` must be
**bit-identical** to the legacy strictly per-cycle loop — same Welford
latency moments (which are float-order-sensitive, so even completion
*ordering* must match), same byte counters, same histograms — and every
component must end the run in the same state, as read by the telemetry
probes the fabric declares.  These tests enforce that claim over a grid
of fabric × pattern × direction × outstanding configurations, plus the
drain/deadlock edge cases.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.fabric import IdealFabric, MaoFabric, SegmentedFabric
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim import Engine, SimConfig
from repro.sim.config import ENGINE_TIERS
from repro.traffic import make_hotspot_sources, make_pattern_sources
from repro.types import Pattern, RWRatio, READ_ONLY, TWO_TO_ONE

FABRICS = {
    "xlnx": SegmentedFabric,
    "mao": MaoFabric,
    "ideal": IdealFabric,
}

#: The differential grid: (fabric, pattern, rw, outstanding).  Covers all
#: three fabrics, sequential and random patterns, hot-spot (CCS) and
#: partitioned (SCS) placement, both latency scenarios (1 and 32
#: outstanding), and read-only vs. mixed traffic — 14 configurations.
GRID = [
    ("xlnx", Pattern.SCS, TWO_TO_ONE, 32),
    ("xlnx", Pattern.CCS, TWO_TO_ONE, 32),
    ("xlnx", Pattern.CCS, TWO_TO_ONE, 1),
    ("xlnx", Pattern.CCS, READ_ONLY, 32),
    ("xlnx", Pattern.CCRA, TWO_TO_ONE, 32),
    ("xlnx", Pattern.SCRA, TWO_TO_ONE, 8),
    ("mao", Pattern.CCS, TWO_TO_ONE, 32),
    ("mao", Pattern.CCS, TWO_TO_ONE, 1),
    ("mao", Pattern.CCRA, TWO_TO_ONE, 32),
    ("mao", Pattern.CCRA, READ_ONLY, 32),
    ("mao", Pattern.SCS, RWRatio(1, 2), 32),
    ("ideal", Pattern.CCS, TWO_TO_ONE, 32),
    ("ideal", Pattern.CCRA, TWO_TO_ONE, 1),
    ("ideal", Pattern.SCS, READ_ONLY, 32),
]


#: Fault configurations for the differential grid: injection, watchdog
#: deadlines, NACK/retry/backoff, and degradation remapping must all land
#: on the same cycles under every loop for the reports to stay equal.
FAULT_PLANS = {
    "offline-degrade": FaultPlan(
        [FaultEvent(FaultKind.PCH_OFFLINE, at=450, pch=2)], degrade=True),
    "slow-corrupt": FaultPlan(
        [FaultEvent(FaultKind.PCH_SLOW, at=350, pch=1, duration=400,
                    factor=3.0),
         FaultEvent(FaultKind.DATA_CORRUPT, at=500, duration=400,
                    rate=0.05)],
        seed=7, dbit_fraction=0.3),
    "stall-offline": FaultPlan(
        [FaultEvent(FaultKind.LINK_STALL, at=300, duration=200),
         FaultEvent(FaultKind.PCH_OFFLINE, at=700, pch=5)], degrade=True),
    "offline-starve": FaultPlan(
        [FaultEvent(FaultKind.PCH_OFFLINE, at=400, pch=3)],
        degrade=False),  # no recovery: queued work starves
}

FAULT_GRID = [
    ("xlnx", "offline-degrade"),
    ("xlnx", "slow-corrupt"),
    ("xlnx", "stall-offline"),
    ("mao", "offline-degrade"),
    ("mao", "slow-corrupt"),
    ("mao", "stall-offline"),
    ("mao", "offline-starve"),
    ("ideal", "offline-degrade"),
    ("ideal", "slow-corrupt"),
    ("ideal", "offline-starve"),
]


def _run(small_platform, fabric_key, pattern, rw, outstanding, engine,
         cycles=1200, warmup=300, faults=None, **cfg_kw):
    fabric = FABRICS[fabric_key](small_platform)
    sources = make_pattern_sources(
        pattern, small_platform, burst_len=8, rw=rw,
        address_map=fabric.address_map)
    cfg = SimConfig(cycles=cycles, warmup=warmup, outstanding=outstanding,
                    engine=engine, **cfg_kw)
    eng = Engine(fabric, sources, cfg, faults=faults)
    return eng, eng.run()


def _probe_finals(engine):
    """End-of-run value of every probe the fabric declares."""
    return {p.name: p.read() for p in engine.fabric.telemetry_probes()}


def _two_way(small_platform, fabric_key, pattern, rw, outstanding, **kw):
    """Run both tiers; diff the vector tier against the legacy oracle,
    report and final component state."""
    runs = {
        engine: _run(small_platform, fabric_key, pattern, rw, outstanding,
                     engine, **kw)
        for engine in ENGINE_TIERS
    }
    (vec, vec_report), (leg, legacy) = runs["vector"], runs["legacy"]
    assert vec_report == legacy, "vector != legacy"
    finals, oracle = _probe_finals(vec), _probe_finals(leg)
    assert finals.keys() == oracle.keys()
    drift = sorted(n for n in oracle if finals[n] != oracle[n])
    assert not drift, f"probe finals differ: {drift[:5]}"
    return legacy


@pytest.mark.parametrize("fabric_key,pattern,rw,outstanding", GRID,
                         ids=[f"{f}-{p.name}-{r.reads}to{r.writes}-o{o}"
                              for f, p, r, o in GRID])
def test_engines_bit_identical(small_platform, fabric_key, pattern, rw,
                               outstanding):
    # Dataclass equality covers every field, including the float Welford
    # moments and the latency histograms.
    _two_way(small_platform, fabric_key, pattern, rw, outstanding)


@pytest.mark.parametrize("fabric_key,plan_key", FAULT_GRID,
                         ids=[f"{f}-{p}" for f, p in FAULT_GRID])
def test_engines_bit_identical_under_faults(small_platform, fabric_key,
                                            plan_key):
    """Fault injection must not break the bit-identity claim: clock jumps
    clamp to fault-event cycles, watchdog deadlines, and retry due times,
    so every loop observes the same failure and recovery schedule."""
    plan = FAULT_PLANS[plan_key]
    kw = dict(faults=plan, txn_timeout_cycles=4000,
              progress_timeout_cycles=4000)
    report = _two_way(small_platform, fabric_key, Pattern.SCS, TWO_TO_ONE,
                      16, **kw)
    # The scenario must actually have exercised the fault machinery.
    if plan.offline_pchs and plan.degrade:
        assert report.dead_pchs == plan.offline_pchs
        assert report.nacks > 0


def test_vector_skips_cycles(small_platform):
    """Sanity: the low-intensity latency scenario has idle stretches the
    vector tier must exploit (otherwise it silently degraded to legacy)."""
    vec, _ = _run(small_platform, "mao", Pattern.CCS, TWO_TO_ONE, 1,
                  "vector")
    assert vec.stepped_cycles < vec.config.cycles


def test_vector_jumps_starvation_window(small_platform):
    """The regime the vector tier exists for: the hot PCH goes offline
    with no degrade remap and no watchdogs, so every credit parks behind
    the dead channel and the staged deque is refused forever.  A
    whole-fabric ``next_event`` sees non-empty MC queues and staged work
    and would grind cycle by cycle; the vector stepper's pop tracking
    proves no acceptance is possible and jumps the window."""
    plan = FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=400, pch=0)],
                     degrade=False)
    stepped = {}
    reports = {}
    for engine in ENGINE_TIERS:
        fabric = MaoFabric(small_platform)
        sources = make_hotspot_sources(
            0, small_platform, burst_len=8, rw=READ_ONLY,
            address_map=fabric.address_map)
        cfg = SimConfig(cycles=2400, warmup=300, outstanding=16,
                        engine=engine)
        eng = Engine(fabric, sources, cfg, faults=plan)
        reports[engine] = eng.run()
        stepped[engine] = eng.stepped_cycles
    assert reports["vector"] == reports["legacy"]
    assert stepped["vector"] < stepped["legacy"] / 2


def test_legacy_steps_every_cycle(small_platform):
    engine, _ = _run(small_platform, "xlnx", Pattern.CCS, TWO_TO_ONE, 32,
                     "legacy")
    assert engine.stepped_cycles == engine.config.cycles


@pytest.mark.parametrize("engine", ENGINE_TIERS)
def test_drain_restores_outstanding_limits(small_platform, engine):
    """Draining suspends issue credits; they must come back afterwards.

    Regression test: ``drain()`` used to zero ``outstanding_limit``
    permanently, so a drained engine could never issue again."""
    fabric = MaoFabric(small_platform)
    sources = make_pattern_sources(Pattern.CCS, small_platform, burst_len=8)
    cfg = SimConfig(cycles=600, warmup=100, outstanding=16, engine=engine)
    eng = Engine(fabric, sources, cfg)
    eng.run()
    limits_before = [mp.outstanding_limit for mp in eng.masters]
    assert limits_before == [16] * len(eng.masters)
    eng.drain()
    assert [mp.outstanding_limit for mp in eng.masters] == limits_before
    assert all(mp.outstanding == 0 for mp in eng.masters)
    assert fabric.quiescent()


class _LossyFabric(IdealFabric):
    """Drops every Nth read completion — simulates a lost transaction."""

    def __init__(self, *args, drop_every: int = 7, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._drop_every = drop_every
        self._reads_seen = 0

    def _on_read_data(self, txn, time):
        self._reads_seen += 1
        if self._reads_seen % self._drop_every == 0:
            return  # transaction vanishes: never completes
        super()._on_read_data(txn, time)


@pytest.mark.parametrize("engine", ENGINE_TIERS)
def test_drain_detects_lost_transactions(small_platform, engine):
    """A fabric that loses transactions must fail the drain loudly (the
    conservation invariant), on every engine tier — horizon jumps must
    not turn the deadlock into an endless spin or a silent pass."""
    fabric = _LossyFabric(small_platform)
    sources = make_pattern_sources(Pattern.CCS, small_platform, burst_len=8)
    cfg = SimConfig(cycles=400, warmup=100, outstanding=8, engine=engine)
    eng = Engine(fabric, sources, cfg)
    eng.run()
    assert sum(mp.outstanding for mp in eng.masters) > 0
    with pytest.raises(SimulationError, match="drain"):
        eng.drain(max_cycles=20_000)
    # The limits are restored even on the failure path.
    assert all(mp.outstanding_limit == 8 for mp in eng.masters)


def test_lossy_subclass_is_bit_identical(small_platform):
    """A fabric *subclass* overriding a completion hook must still agree
    across tiers: the vector stepper keys its specializations on method
    identity, and ``_LossyFabric`` keeps ``IdealFabric.step``, so it gets
    the transit stepper with its own ``_on_read_data``."""
    reports = {}
    for engine in ENGINE_TIERS:
        fabric = _LossyFabric(small_platform)
        sources = make_pattern_sources(Pattern.CCS, small_platform,
                                       burst_len=8)
        cfg = SimConfig(cycles=400, warmup=100, outstanding=8, engine=engine)
        eng = Engine(fabric, sources, cfg)
        reports[engine] = eng.run()
    assert reports["vector"] == reports["legacy"]


def test_engine_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "vector")
    assert SimConfig().engine == "vector"
    monkeypatch.setenv("REPRO_ENGINE", "legacy")
    assert SimConfig().engine == "legacy"
    monkeypatch.delenv("REPRO_ENGINE")
    assert SimConfig().engine == "legacy"
    assert ENGINE_TIERS == ("legacy", "vector")
