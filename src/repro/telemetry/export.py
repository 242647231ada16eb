"""Chrome trace-event / Perfetto JSON export.

Builds the `Trace Event Format <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
JSON object both ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_
load directly:

* one **slice** (``ph: "X"``) per completed transaction attempt from the
  :class:`~repro.sim.trace.TraceRecorder`, grouped into one track (tid)
  per master under a "bus masters" process — issue-to-completion spans,
  with uid/pch/burst/status/attempt in ``args``;
* one **counter track** (``ph: "C"``) per telemetry probe with activity,
  under a "telemetry" process — gauges emit their sampled value,
  counters their per-interval delta (activity per slice, which is what
  you want to *see*; run totals live in the bottleneck report);
* **clock jump** slices on an "engine" process marking the quiescent
  stretches the clock skipped, so a gap in the counter tracks reads as
  "provably idle", not "sampler missed it".

Timestamps are microseconds of simulated time (fabric cycles divided by
the fabric clock), so the Perfetto timeline is real device time.

:func:`validate_chrome_trace` is the schema check used by the tests and
the CI smoke job; it validates structure, not values.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..sim.trace import FIELDS, TraceRecorder
from .metrics import COUNTER
from .sampler import Telemetry

#: Process ids of the exported track groups.
PID_MASTERS = 1
PID_TELEMETRY = 2
PID_ENGINE = 3

#: Completion-status names for slice args (mirrors axi.transaction).
_STATUS = {0: "ok", 1: "nack", 2: "poisoned"}


def _us(cycle: float, platform: HbmPlatform) -> float:
    return cycle / platform.fabric_clock_hz * 1e6


def chrome_trace(
    recorder: Optional[TraceRecorder] = None,
    telemetry: Optional[Telemetry] = None,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    max_slices: Optional[int] = None,
) -> Dict[str, Any]:
    """Build the trace-event JSON object (a plain dict).

    Either source may be omitted: a recorder alone gives transaction
    slices, telemetry alone gives counter tracks.  ``max_slices`` caps
    the number of transaction slices (counter tracks are never capped);
    when the cap truncates, the metadata notes how many were dropped.
    """
    events: List[Dict[str, Any]] = []
    meta: Dict[str, Any] = {"cycles_per_us": platform.fabric_clock_hz / 1e6}

    def process(pid: int, name: str) -> None:
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name", "args": {"name": name}})

    if recorder is not None and len(recorder):
        process(PID_MASTERS, "bus masters")
        arr = recorder.as_array()
        rows = arr if max_slices is None else arr[:max_slices]
        dropped = len(arr) - len(rows) + recorder.dropped
        if dropped:
            meta["slices_dropped"] = int(dropped)
        i_master = FIELDS.index("master")
        i_pch = FIELDS.index("pch")
        i_read = FIELDS.index("is_read")
        i_burst = FIELDS.index("burst_len")
        i_issue = FIELDS.index("issue")
        i_complete = FIELDS.index("complete")
        i_uid = FIELDS.index("uid")
        i_status = FIELDS.index("status")
        i_attempt = FIELDS.index("attempt")
        seen_masters = set()
        for row in rows:
            master = int(row[i_master])
            seen_masters.add(master)
            status = int(row[i_status])
            name = (f"{'RD' if row[i_read] else 'WR'} "
                    f"pch{int(row[i_pch])} x{int(row[i_burst])}")
            if status:
                name += f" [{_STATUS.get(status, status)}]"
            events.append({
                "ph": "X", "pid": PID_MASTERS, "tid": master,
                "cat": "txn", "name": name,
                "ts": _us(float(row[i_issue]), platform),
                "dur": _us(float(row[i_complete] - row[i_issue]), platform),
                "args": {"uid": int(row[i_uid]),
                         "attempt": int(row[i_attempt]),
                         "status": _STATUS.get(status, str(status))},
            })
        for m in sorted(seen_masters):
            events.append({"ph": "M", "pid": PID_MASTERS, "tid": m,
                           "name": "thread_name",
                           "args": {"name": f"master {m}"}})

    if telemetry is not None and telemetry.num_samples:
        process(PID_TELEMETRY, "telemetry")
        cycles = telemetry.sample_cycles
        samples = telemetry.samples
        for i, probe in enumerate(telemetry.probes):
            first = samples[0][i]
            if (all(row[i] == first for row in samples)
                    and first == 0.0):  # det-lint: allow (exact 0 sentinel)
                continue  # never active: don't clutter the timeline
            is_counter = probe.kind == COUNTER
            prev = first if is_counter else None
            for c, row in zip(cycles, samples):
                v = row[i]
                if is_counter:
                    v, prev = v - prev, v  # type: ignore[operator]
                events.append({
                    "ph": "C", "pid": PID_TELEMETRY, "tid": 0,
                    "name": probe.name, "ts": _us(float(c), platform),
                    "args": {"value": v},
                })
        if telemetry.jumps:
            process(PID_ENGINE, "engine")
            for start, target in telemetry.jumps:
                events.append({
                    "ph": "X", "pid": PID_ENGINE, "tid": 0,
                    "cat": "engine", "name": "clock jump",
                    "ts": _us(float(start), platform),
                    "dur": _us(float(target - start), platform),
                    "args": {"skipped_cycles": target - start - 1},
                })
        meta["samples"] = telemetry.num_samples
        meta["sample_interval_cycles"] = telemetry.interval

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }


def write_chrome_trace(path: str, trace: Dict[str, Any]) -> None:
    """Serialize a trace object to ``path`` (compact separators: traces
    get large, and Perfetto does not care about whitespace)."""
    with open(path, "w") as fh:
        json.dump(trace, fh, separators=(",", ":"))


def validate_chrome_trace(obj: Any) -> List[str]:
    """Structural validation; returns a list of problems (empty = valid).

    Checks what the Perfetto importer actually requires: a
    ``traceEvents`` list whose entries carry ``ph``/``name``/``pid`` and,
    per phase, sane ``ts``/``dur``/``args`` fields.
    """
    problems: List[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "C", "M"):
            problems.append(f"{where}: unsupported phase {ph!r}")
            continue
        for key in ("name", "pid"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        if ph in ("X", "C"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or "value" not in args:
                problems.append(f"{where}: counter without args.value")
        if ph == "M" and not isinstance(ev.get("args"), dict):
            problems.append(f"{where}: metadata without args")
    return problems
