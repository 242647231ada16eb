"""Engine-tier wall-clock benchmarks: vector vs. legacy (the default).

Three measured points, each asserting bit-identity before timing is even
reported (a fast-but-wrong engine is worthless):

1. ``mao-depth1-ccra`` — the saturated Fig. 6 reorder-depth-1 point.
   The legacy loop polls every lane-saturated master every cycle; the
   vector tier's extended sleep rules collapse that polling.
2. ``seg-ccs-hot`` — the saturated Fig. 2 hot-spot point on the vendor
   fabric, where per-plane due caching pays on the request/response
   scans.
3. ``starvation-window`` — the hot PCH goes offline with no degrade
   remap and no watchdogs: every credit parks behind the dead channel.
   The legacy loop grinds the whole window cycle by cycle; the vector
   stepper's staged-pop tracking proves no acceptance is possible and
   jumps it.  This is the ≥10× acceptance point.

Results land in ``benchmarks/BENCH_vector.json`` — wall-clock seconds
and stepped-cycle counts per engine per point, plus the speedups — so
the numbers the assertions were calibrated against stay in the repo.
"""

import dataclasses
import json
import os
import time

import pytest

from repro.core.mao import MaoConfig
from repro.fabric import MaoFabric, SegmentedFabric
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.params import DEFAULT_PLATFORM
from repro.sim import Engine, SimConfig
from repro.sim.config import ENGINE_TIERS
from repro.traffic import make_hotspot_sources, make_pattern_sources
from repro.types import Pattern, READ_ONLY, TWO_TO_ONE

from conftest import show

_OUT = os.path.join(os.path.dirname(__file__), "BENCH_vector.json")

#: Module-level accumulator; each benchmark writes its point, the file
#: is rewritten after every update so partial runs still record.
_RESULTS = {}


def _measure(name, build, cycles, warmup, outstanding, faults=None):
    """Time one run per engine tier; assert reports bit-identical."""
    point = {}
    reports = {}
    for engine in ENGINE_TIERS:
        fabric, sources = build()
        cfg = SimConfig(cycles=cycles, warmup=warmup,
                        outstanding=outstanding, engine=engine)
        eng = Engine(fabric, sources, cfg, faults=faults)
        t0 = time.perf_counter()
        reports[engine] = eng.run()
        elapsed = time.perf_counter() - t0
        point[engine] = {"seconds": round(elapsed, 4),
                         "stepped_cycles": eng.stepped_cycles}
    assert reports["vector"] == reports["legacy"], \
        f"{name}: vector != legacy"
    point["speedup_vector_vs_legacy"] = round(
        point["legacy"]["seconds"] / point["vector"]["seconds"], 2)
    point["cycles"] = cycles
    _RESULTS[name] = point
    with open(_OUT, "w") as fh:
        json.dump(_RESULTS, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return point, reports["legacy"]


def _fmt(name, point):
    rows = "\n".join(
        f"{tier:7s}: {point[tier]['seconds']:7.3f}s  "
        f"stepped {point[tier]['stepped_cycles']}"
        for tier in ENGINE_TIERS)
    return (f"{rows}\n"
            f"vector vs legacy: {point['speedup_vector_vs_legacy']:.2f}x")


@pytest.mark.benchmark(group="engine-tiers")
def test_bench_vector_mao_depth1(benchmark):
    """Saturated reorder-depth-1 random reads (the Fig. 6 floor)."""
    def build():
        fab = MaoFabric(DEFAULT_PLATFORM,
                        MaoConfig(reorder_depth=1, stages=2))
        srcs = make_pattern_sources(Pattern.CCRA, DEFAULT_PLATFORM,
                                    burst_len=16, rw=READ_ONLY, seed=11)
        return fab, srcs

    def run():
        return _measure("mao-depth1-ccra", build, cycles=12_000,
                        warmup=2_000, outstanding=32)

    point, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    show("Engine tiers: MAO depth-1 CCRA (saturated)", _fmt("x", point))
    # Healthy saturated runs are bounded by identical model work in
    # every tier; the win here is polling collapse, not cycle jumps.
    assert point["speedup_vector_vs_legacy"] > 1.0


@pytest.mark.benchmark(group="engine-tiers")
def test_bench_vector_seg_hotspot(benchmark):
    """Vendor-fabric hot-spot (the Fig. 2 CCS collapse)."""
    def build():
        fab = SegmentedFabric(DEFAULT_PLATFORM)
        srcs = make_pattern_sources(Pattern.CCS, DEFAULT_PLATFORM,
                                    burst_len=16, rw=TWO_TO_ONE, seed=3)
        return fab, srcs

    def run():
        return _measure("seg-ccs-hot", build, cycles=12_000,
                        warmup=2_000, outstanding=32)

    point, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    show("Engine tiers: segmented CCS hot-spot", _fmt("x", point))
    # Report the number; no speedup floor — the hot-spot's single busy
    # channel keeps every engine stepping almost every cycle.
    assert point["speedup_vector_vs_legacy"] > 0.5


@pytest.mark.benchmark(group="engine-tiers")
def test_bench_vector_starvation_window(benchmark):
    """The ≥10x acceptance point: a starved fabric the legacy loop steps
    cycle by cycle (a whole-fabric horizon would be pinned to the next
    cycle by the non-empty MC queues) but the vector tier's
    per-component dues prove idle."""
    plan = FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=2000, pch=0)],
                     degrade=False)

    def build():
        fab = MaoFabric(DEFAULT_PLATFORM)
        srcs = make_hotspot_sources(0, DEFAULT_PLATFORM, burst_len=8,
                                    rw=READ_ONLY,
                                    address_map=fab.address_map)
        return fab, srcs

    def run():
        return _measure("starvation-window", build, cycles=60_000,
                        warmup=1_000, outstanding=32, faults=plan)

    point, report = benchmark.pedantic(run, rounds=1, iterations=1)
    show("Engine tiers: starvation window (offline hot PCH, no degrade)",
         _fmt("x", point))
    # The vector tier must jump the dead window, not merely shave it.
    assert point["vector"]["stepped_cycles"] < 10_000
    assert point["speedup_vector_vs_legacy"] >= 10.0
