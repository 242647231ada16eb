"""Fig. 2 — throughput vs. AXI read/write ratio at 300 MHz.

"Fig. 2 shows this effect on throughput for a more common 300 MHz clock
... the maximal value was already reached with the commonly encountered
2:1 ratio" and concurrent reads/writes lose only ~2 % against the
450 MHz unidirectional reference.

The workload is a perfectly partitioned SCS stream (every master on its
own channel, burst length 16) so the ratio effect is separated from all
fabric contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..traffic import make_pattern_sources
from ..types import FabricKind, Pattern, RWRatio
from .. import make_fabric
from ._common import DEFAULT_CYCLES, measure, pct_of_peak, sweep_key

#: The ratio sweep of the figure (read:write).
RATIOS = (
    RWRatio(1, 0), RWRatio(8, 1), RWRatio(4, 1), RWRatio(2, 1),
    RWRatio(1, 1), RWRatio(1, 2), RWRatio(1, 4), RWRatio(1, 8),
    RWRatio(0, 1),
)

PAPER_REFERENCE = {
    "peak_ratio": "2:1",
    "peak_gbps": 416.7,
    "unidirectional_gbps": 307.2,  # 300 MHz port-limited
    "loss_vs_450mhz_unidirectional": 0.02,
}


@dataclass(frozen=True)
class Fig2Row:
    ratio: RWRatio
    read_gbps: float
    write_gbps: float
    total_gbps: float
    fraction_of_peak: float


def run(
    cycles: int = DEFAULT_CYCLES,
    burst_len: int = 16,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    ratios=RATIOS,
) -> List[Fig2Row]:
    rows: List[Fig2Row] = []
    for rw in ratios:
        fab = make_fabric(FabricKind.XLNX, platform)
        sources = make_pattern_sources(
            Pattern.SCS, platform, burst_len=burst_len, rw=rw,
            address_map=fab.address_map)
        rep = measure(FabricKind.XLNX, sources, cycles=cycles,
                      platform=platform, fabric=fab,
                      cache_key=sweep_key(
                          "pattern-sim", platform, fabric=FabricKind.XLNX,
                          pattern=Pattern.SCS, burst_len=burst_len, rw=rw,
                          seed=0))
        rows.append(Fig2Row(
            ratio=rw,
            read_gbps=rep.read_gbps,
            write_gbps=rep.write_gbps,
            total_gbps=rep.total_gbps,
            fraction_of_peak=pct_of_peak(rep.total_gbps, platform),
        ))
    return rows


def peak_row(rows: List[Fig2Row]) -> Fig2Row:
    return max(rows, key=lambda r: r.total_gbps)


def format_table(rows: List[Fig2Row]) -> str:
    out = ["Fig. 2 — throughput vs. read/write ratio (SCS, BL16, 300 MHz)",
           f"{'R:W':>6} {'read':>10} {'write':>10} {'total':>10} {'of peak':>9}"]
    for r in rows:
        out.append(f"{str(r.ratio):>6} {r.read_gbps:>8.1f} G {r.write_gbps:>8.1f} G "
                   f"{r.total_gbps:>8.1f} G {r.fraction_of_peak:>8.1%}")
    best = peak_row(rows)
    out.append(f"peak at {best.ratio} with {best.total_gbps:.1f} GB/s "
               f"(paper: {PAPER_REFERENCE['peak_ratio']} at "
               f"{PAPER_REFERENCE['peak_gbps']} GB/s)")
    return "\n".join(out)
