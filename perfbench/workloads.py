"""The in-process workloads: what one timed pass runs.

Each ``*_pass`` function runs the workload's fixed work once and returns
its outputs as JSON-able dicts, so a run on the default engine tier can
be compared field by field with a run on the legacy reference tier.
``engine=None`` leaves the tier to the program's default; the reference
child passes ``"legacy"`` (and exports ``REPRO_ENGINE=legacy`` for the
code paths that build their own ``SimConfig``, such as the chaos suite).

``short=True`` shrinks every horizon for the smoke mode; timed runs
always use the full sizes.  ``clock`` times the parts of a pass; the
measuring child passes one that stops while it samples the host speed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import make_fabric
from repro.core.mao import MaoConfig, MaoVariant
from repro.fabric import MaoFabric
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.params import DEFAULT_PLATFORM
from repro.sim import Engine, SimConfig
from repro.traffic import (make_hotspot_sources, make_pattern_sources,
                           make_rotation_sources, make_stride_sources)
from repro.types import FabricKind, Pattern, READ_ONLY, TWO_TO_ONE

KB = 1024
MATRIX_CYCLES = 12_000
STARVE_CYCLES = 60_000
STARVE_FAULT_AT = 2_000
CHAOS_CYCLES = 3_000
#: Cases per campaign: the 12-config core and 33 rows of the seeded
#: pairwise array, which holds 45 to 49 rows, so no case repeats.
FUZZ_BUDGET = 45
#: Campaigns per pass.  The cost of a campaign depends on which pairwise
#: array its seed draws; two independent arrays halve that variance.
FUZZ_CAMPAIGNS = 2
#: Distance between the campaign seeds of one pass, far beyond any
#: seed a run is given, so the campaigns of two runs never share a seed.
FUZZ_SEED_STRIDE = 1_000_003

#: (name, fabric builder, sources builder, outstanding); builders take
#: the platform, the fabric and the seed.
Cell = Tuple[str, Callable, Callable, int]


def _pattern(pattern: Pattern, burst_len: int) -> Callable:
    def sources(platform, fabric, seed):
        return make_pattern_sources(pattern, platform, burst_len=burst_len,
                                    rw=TWO_TO_ONE,
                                    address_map=fabric.address_map,
                                    seed=seed)
    return sources


def _xlnx(platform):
    return make_fabric(FabricKind.XLNX, platform)


def _mao(platform):
    return make_fabric(FabricKind.MAO, platform)


def _mao_depth1(platform):
    return MaoFabric(platform, config=MaoConfig(
        variant=MaoVariant.PARTIAL, stages=2, reorder_depth=1))


#: One cell per simulated artifact (the ROADMAP ledger's matrix).
MATRIX: Tuple[Cell, ...] = (
    ("fig2-scs-2to1", _xlnx, _pattern(Pattern.SCS, 16), 32),
    ("fig3-ccs-bl1", _xlnx, _pattern(Pattern.CCS, 1), 32),
    ("fig3-ccs-bl16", _xlnx, _pattern(Pattern.CCS, 16), 32),
    ("fig3-ccra-bl1", _xlnx, _pattern(Pattern.CCRA, 1), 32),
    ("fig3-ccra-bl16", _xlnx, _pattern(Pattern.CCRA, 16), 32),
    ("fig4-rot8", _xlnx,
     lambda p, f, s: make_rotation_sources(8, p, 16, TWO_TO_ONE,
                                           address_map=f.address_map), 32),
    ("fig5-stride-512k", _mao,
     lambda p, f, s: make_stride_sources(512 * KB, p, 16, TWO_TO_ONE), 32),
    ("fig6-depth1", _mao_depth1,
     lambda p, f, s: make_pattern_sources(Pattern.CCRA, p, burst_len=16,
                                          rw=TWO_TO_ONE, seed=s), 32),
    ("table2-single", _xlnx, _pattern(Pattern.CCS, 1), 1),
)


def _config(cycles: int, warmup: int, outstanding: int,
            engine: Optional[str]) -> SimConfig:
    if engine is None:
        return SimConfig(cycles=cycles, warmup=warmup,
                         outstanding=outstanding)
    return SimConfig(cycles=cycles, warmup=warmup, outstanding=outstanding,
                     engine=engine)


Clock = Callable[[], float]


@contextmanager
def _timed(parts: Dict[str, float], name: str, clock: Clock):
    """Record the host seconds of one part of a pass in ``parts``."""
    start = clock()
    yield
    parts[name] = clock() - start


def _as_json(value: Any) -> Any:
    """Plain JSON form of a report (tuples become lists, other values
    strings)."""
    return json.loads(json.dumps(dataclasses.asdict(value), default=str))


def matrix_pass(seed: int, short: bool, engine: Optional[str],
                parts: Dict[str, float], clock: Clock = time.perf_counter,
                **_: Any) -> List[Dict[str, Any]]:
    cycles = 1_500 if short else MATRIX_CYCLES
    # The experiments' own warmup rule (repro.experiments._common.measure).
    warmup = min(cycles // 4, 3_000)
    out = []
    for name, fabric_fn, sources_fn, outstanding in MATRIX:
        with _timed(parts, name, clock):
            fabric = fabric_fn(DEFAULT_PLATFORM)
            sources = sources_fn(DEFAULT_PLATFORM, fabric, seed)
            report = Engine(fabric, sources,
                            _config(cycles, warmup, outstanding, engine)).run()
        out.append({"name": name, "report": _as_json(report),
                    "total_gbps": report.total_gbps})
    return out


def paper_err_pct(pairs: List[Tuple[float, float]]) -> float:
    """Mean absolute relative error, in percent, of ``(sim, paper)``."""
    return 100.0 * sum(abs(sim - paper) / paper
                       for sim, paper in pairs) / len(pairs)


def matrix_anchors(outputs: List[Dict[str, Any]]) -> List[Tuple[float, float]]:
    """``(simulated, paper)`` for every matrix cell the paper anchors.

    Cells without a paper number (CCS/CCRA BL1, the 512 KB stride, the
    depth-1 reorder floor) carry no anchor.
    """
    from repro.experiments import (fig2_rw_ratio, fig3_burst_length,
                                   fig4_rotation, table2_latency)
    fig3 = fig3_burst_length.PAPER_REFERENCE
    fig4 = fig4_rotation.PAPER_REFERENCE
    single = table2_latency.PAPER_REFERENCE
    cell = {o["name"]: o for o in outputs}
    # EXPERIMENTS.md reads "5.4x a single channel" against the CCS
    # hot-spot, which is one channel's worth of bandwidth.
    return [
        (cell["fig2-scs-2to1"]["total_gbps"],
         fig2_rw_ratio.PAPER_REFERENCE["peak_gbps"]),
        (cell["fig3-ccs-bl16"]["total_gbps"], fig3["ccs_hotspot_both_gbps"]),
        (cell["fig3-ccra-bl16"]["total_gbps"],
         fig3["ccra_vs_single_pch_factor"] * fig3["ccs_hotspot_both_gbps"]),
        (cell["fig4-rot8"]["total_gbps"],
         fig4["relative"][8] * fig4["rot0_gbps"]),
        (cell["table2-single"]["report"]["read_latency"]["mean"],
         single[("Single", "xlnx", "CCS", "read")][0]),
        (cell["table2-single"]["report"]["write_latency"]["mean"],
         single[("Single", "xlnx", "CCS", "write")][0]),
    ]


def starve_anchors(outputs: List[Dict[str, Any]]) -> List[Tuple[float, float]]:
    """The chaos baselines are fault-free SCS BL16 2:1 runs: Fig. 3's
    single-channel-stream peak."""
    from repro.experiments import fig3_burst_length
    paper = fig3_burst_length.PAPER_REFERENCE["scs_bl16_gbps"]
    return [(o["report"]["baseline_gbps"], paper) for o in outputs
            if o["name"].startswith("chaos-")]


def starve_pass(seed: int, short: bool, engine: Optional[str],
                parts: Dict[str, float], clock: Clock = time.perf_counter,
                **_: Any) -> List[Dict[str, Any]]:
    from repro.faults.chaos import run_suite
    cycles = 8_000 if short else STARVE_CYCLES
    with _timed(parts, "starvation-window", clock):
        plan = FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE,
                                     at=STARVE_FAULT_AT, pch=0)],
                         seed=seed, degrade=False)
        fabric = MaoFabric(DEFAULT_PLATFORM)
        sources = make_hotspot_sources(0, DEFAULT_PLATFORM, burst_len=8,
                                       rw=READ_ONLY,
                                       address_map=fabric.address_map)
        report = Engine(fabric, sources, _config(cycles, 1_000, 32, engine),
                        faults=plan).run()
    with _timed(parts, "chaos-suite", clock):
        suite = run_suite(seed=seed,
                          cycles=600 if short else CHAOS_CYCLES)
    return ([{"name": "starvation-window", "report": _as_json(report)}]
            + [{"name": f"chaos-{r.scenario}", "report": _as_json(r)}
               for r in suite])


def _fuzz_campaigns(seed: int, short: bool) -> List[Tuple[int, int]]:
    """``(budget, campaign seed)`` of each campaign in a pass."""
    budget = 3 if short else FUZZ_BUDGET
    return [(budget, seed + i * FUZZ_SEED_STRIDE)
            for i in range(FUZZ_CAMPAIGNS)]


def fuzz_pass(seed: int, short: bool, engine: Optional[str], tmpdir: str,
              parts: Dict[str, float], clock: Clock = time.perf_counter,
              **_: Any) -> List[Dict[str, Any]]:
    """Seeded conformance campaigns, journaled, no corpus writes.

    The campaign runs every case on every tier by construction, so
    ``engine`` does not apply; each journal goes to a fresh file under
    ``tmpdir``.  The outputs are every case, then one summary.
    """
    from repro.conformance.driver import case_digest, run_campaign
    out = []
    complete = True
    records = 0
    for budget, campaign_seed in _fuzz_campaigns(seed, short):
        journal = os.path.join(tmpdir, f"fuzz-{time.monotonic_ns()}.jsonl")
        stamps: List[float] = [clock()]
        with _timed(parts, f"campaign-{campaign_seed}", clock):
            report = run_campaign(budget=budget, seed=campaign_seed,
                                  minimize=False, journal_path=journal,
                                  progress=lambda _r: stamps.append(
                                      clock()))
        with open(journal, encoding="utf-8") as fh:
            records += sum(1 for line in fh if line.strip())
        os.remove(journal)
        complete = complete and report.complete
        for result, start, end in zip(report.results, stamps, stamps[1:]):
            out.append({"name": case_digest(result.case),
                        "report": {"label": result.case.label(),
                                   "failures": [dataclasses.asdict(f)
                                                for f in result.failures],
                                   "skipped": result.skipped},
                        "case_s": end - start})
    out.append({"name": "campaigns",
                "report": {"complete": complete, "journal_records": records}})
    return out


def expected_fuzz_digests(seed: int, short: bool) -> List[str]:
    from repro.conformance.driver import campaign_cases, case_digest
    return [case_digest(c) for budget, campaign_seed in
            _fuzz_campaigns(seed, short)
            for c in campaign_cases(budget, campaign_seed)]


ANCHORS = {
    "artifact-matrix": matrix_anchors,
    "fault-starve": starve_anchors,
}

PASSES = {
    "artifact-matrix": matrix_pass,
    "fault-starve": starve_pass,
    "fuzz-campaign": fuzz_pass,
}


def default_tier() -> str:
    """The tier a run with no engine override resolves to."""
    return SimConfig().engine
