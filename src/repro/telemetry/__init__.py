"""Structured telemetry: per-component metrics, sampling, and profiling.

The observability layer of the reproduction (ROADMAP north-star item):
probes read the counters the simulated components already keep, a
time-sliced sampler snapshots them without slowing the engine, and
the exporters turn one run into a Perfetto timeline plus a ranked
bottleneck report attributing lost bandwidth to the switch, the DRAM, or
the masters — the paper's Sec. IV-A decomposition, automated.

Layering: this package sits *above* the simulation core.  ``repro.sim``
and the fabrics never import it at module level (fabrics build their
probe lists lazily inside ``telemetry_probes()``), and the profiler
(:mod:`repro.telemetry.profile`) is deliberately not re-exported here
because it imports the experiment layer; the CLI loads it lazily.
"""

from .metrics import COUNTER, GAUGE, HIST_BUCKETS, Log2Histogram, Probe, ProbeSet
from .sampler import Telemetry
from .export import (chrome_trace, validate_chrome_trace,
                     write_chrome_trace)
from .bottleneck import (BottleneckAnalysis, ComponentUtil, analyze,
                         bottleneck_report, format_report)
from .manifest import (MANIFEST_SCHEMA, build_manifest, service_manifest,
                       write_manifest)

__all__ = [
    "COUNTER",
    "GAUGE",
    "HIST_BUCKETS",
    "Log2Histogram",
    "Probe",
    "ProbeSet",
    "Telemetry",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "BottleneckAnalysis",
    "ComponentUtil",
    "analyze",
    "bottleneck_report",
    "format_report",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "service_manifest",
    "write_manifest",
]
