"""Micro-benchmarks of the simulator itself (not a paper artifact).

Tracks the cost of the hot paths so performance regressions in the
cycle kernel are caught: full-fabric simulation throughput, the MAO
fabric, and the analytical models (which should stay ~instant).
"""

import pytest

from repro import make_fabric
from repro.core.estimator import BandwidthEstimator, EstimateInputs
from repro.fabric.flow import rotation_throughput_gbps
from repro.sim import Engine, SimConfig
from repro.traffic import make_pattern_sources
from repro.types import FabricKind, Pattern

CYCLES = 2_000


def _simulate(kind, pattern):
    fab = make_fabric(kind)
    src = make_pattern_sources(pattern, address_map=fab.address_map)
    return Engine(fab, src, SimConfig(cycles=CYCLES, warmup=500)).run()


@pytest.mark.benchmark(group="simulator")
def test_segmented_fabric_cycle_rate(benchmark):
    rep = benchmark.pedantic(_simulate, args=(FabricKind.XLNX, Pattern.SCS),
                             rounds=2, iterations=1)
    assert rep.completed > 0


@pytest.mark.benchmark(group="simulator")
def test_mao_fabric_cycle_rate(benchmark):
    rep = benchmark.pedantic(_simulate, args=(FabricKind.MAO, Pattern.CCRA),
                             rounds=2, iterations=1)
    assert rep.completed > 0


@pytest.mark.benchmark(group="analytical")
def test_estimator_speed(benchmark):
    est = BandwidthEstimator()
    result = benchmark(est.estimate, EstimateInputs(pattern=Pattern.CCS))
    assert result.total_gbps > 0


@pytest.mark.benchmark(group="analytical")
def test_flow_model_speed(benchmark):
    total = benchmark(rotation_throughput_gbps, 8)
    assert total > 0
