"""Per-layer accounting installed from the benchmark's own files.

Two instruments, both attached at run time; neither edits ``src/``:

* :class:`EngineCounts` wraps :meth:`repro.sim.engine.Engine.run` and
  sums exact counts (stepped and jumped cycles, completed transactions,
  DRAM pseudo-channel counters, retries and NACKs) over every engine run
  of a pass, plus the host seconds spent inside ``run``.  The wrapper
  costs two clock reads per engine run, so it stays on in untraced runs.
* :class:`LayerProfiler` runs ``cProfile`` on the main thread and on
  every thread started after it (the sweep service simulates cold points
  in worker threads), then groups self time and call counts by
  ``repro.<pkg>``.  It is used only by traced runs.
"""

from __future__ import annotations

import cProfile
import os
import threading
import time
from typing import Dict, List, Tuple

#: The layers of ``src/repro/`` the split reports; anything else
#: (top-level modules, other packages, the stdlib, the benchmark itself)
#: is grouped as ``other``.
PACKAGES = ("sim", "axi", "fabric", "dram", "core", "traffic", "faults",
            "check", "conformance", "runtime", "experiments", "service")
LAYERS = PACKAGES + ("other",)

#: Exact counts summed by :class:`EngineCounts`.
COUNT_FIELDS = ("sim.stepped_cycles", "sim.jumped_cycles",
                "sim.completed_txns", "dram.txns_serviced",
                "dram.turnarounds", "dram.miss_gaps", "faults.retries",
                "faults.nacks", "sim.engine_runs", "sim.aborted_runs")


class EngineCounts:
    """Exact counts over every ``Engine.run`` call while installed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = dict.fromkeys(COUNT_FIELDS, 0)
        #: Host seconds spent inside ``Engine.run`` (not an exact count).
        self.engine_s = 0.0
        self._original = None

    def install(self) -> None:
        from repro.sim.engine import Engine
        original = Engine.run
        record = self._record

        def run(engine):
            start = time.perf_counter()
            try:
                report = original(engine)
            except BaseException:
                record(engine, None, time.perf_counter() - start)
                raise
            record(engine, report, time.perf_counter() - start)
            return report

        self._original = original
        Engine.run = run

    def uninstall(self) -> None:
        from repro.sim.engine import Engine
        if self._original is not None:
            Engine.run = self._original
            self._original = None

    def _record(self, engine, report, seconds: float) -> None:
        pchs = engine.fabric.pchs
        masters = engine.masters
        delta = {
            "dram.txns_serviced": sum(p.counters.txns_serviced for p in pchs),
            "dram.turnarounds": sum(p.counters.turnarounds for p in pchs),
            "dram.miss_gaps": sum(p.counters.miss_gaps for p in pchs),
            "sim.engine_runs": 1,
        }
        if report is not None:
            delta["sim.stepped_cycles"] = engine.stepped_cycles
            delta["sim.jumped_cycles"] = (engine.config.cycles
                                          - engine.stepped_cycles)
            delta["sim.completed_txns"] = report.completed
            delta["faults.retries"] = report.retries
            delta["faults.nacks"] = report.nacks
        else:
            # A watchdog abort (e.g. the strict channel-loss chaos
            # scenario) ends the run early: cycle counts are undefined,
            # the master-side totals are not.
            delta["sim.aborted_runs"] = 1
            delta["sim.completed_txns"] = sum(m.completed for m in masters)
            delta["faults.retries"] = sum(m.retries for m in masters)
            delta["faults.nacks"] = sum(m.nacks for m in masters)
        with self._lock:
            for key, value in delta.items():
                self.counts[key] += value
            self.engine_s += seconds

    def snapshot(self) -> Tuple[Dict[str, int], float]:
        with self._lock:
            return dict(self.counts), self.engine_s

    def reset(self) -> None:
        with self._lock:
            self.counts = dict.fromkeys(COUNT_FIELDS, 0)
            self.engine_s = 0.0


def _package_of(filename: str, repro_root: str) -> str:
    if filename.startswith(repro_root):
        head, sep, _ = filename[len(repro_root):].partition(os.sep)
        if sep and head in PACKAGES:
            return head
    return "other"


class LayerProfiler:
    """``cProfile`` on this thread and every thread started afterwards."""

    def __init__(self) -> None:
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._main = cProfile.Profile()

    def _thread_hook(self, frame, event, arg):
        # First profile event of a new thread: swap this Python hook for
        # a per-thread C profiler (enable() replaces it on this thread).
        prof = cProfile.Profile()
        with self._lock:
            self._profiles.append(prof)
        prof.enable()

    def start(self) -> None:
        threading.setprofile(self._thread_hook)
        self._main.enable()

    def stop(self) -> None:
        self._main.disable()
        threading.setprofile(None)

    def split(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": s, "calls": n}}`` over every thread.

        Built-in functions have no package of their own; their self time
        goes to the package of each caller, in proportion to the time
        cProfile measured under that caller.
        """
        import repro
        root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        with self._lock:
            profiles = [self._main] + list(self._profiles)
        for prof in profiles:
            prof.create_stats()
            for (filename, _line, _name), entry in prof.stats.items():
                _cc, ncalls, tottime, _ct, callers = entry
                if filename != "~":
                    pkg = _package_of(filename, root)
                    self_s[pkg] += tottime
                    calls[pkg] += ncalls
                    continue
                attributed = 0.0
                for (cfile, _cl, _cn), cstat in callers.items():
                    share = cstat[2]
                    self_s[_package_of(cfile, root)] += share
                    attributed += share
                self_s["other"] += max(0.0, tottime - attributed)
        return {layer: {"self_s": self_s[layer], "calls": calls[layer]}
                for layer in LAYERS}

