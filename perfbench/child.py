"""Child process of the benchmark: one role per process.

``python3 perfbench/child.py --role ROLE --workload W --seed N [...]``

* ``setup`` — import the program and the workload, print ``READY``, exit.
  The parent times spawn to ``READY``: that is the workload's set-up.
* ``reference`` — run one pass on the legacy reference tier and print
  its outputs.
* ``measure`` — print ``READY``, then run timed passes on the default
  tier until ``--seconds`` have passed (at least ``--min-passes``), with
  the exact-count hook installed; ``--profile`` runs one pass under the
  layer profiler instead.  ``--calibrate`` samples the host speed all
  through the passes and times their parts on the scaled clock (see
  ``hostspeed``); the raw wall time of each pass stays in the record.

Results go to stdout as one line ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", required=True,
                    choices=("setup", "reference", "measure"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--tmpdir", required=True)
    args = ap.parse_args()

    import workloads
    from hostspeed import HostSpeed
    from layers import EngineCounts, LayerProfiler
    run_pass = workloads.PASSES[args.workload]
    kwargs = dict(seed=args.seed, short=args.short, tmpdir=args.tmpdir)
    result = {}
    if args.workload == "fuzz-campaign":
        result["expected_digests"] = workloads.expected_fuzz_digests(
            args.seed, args.short)

    if args.role == "reference":
        result["outputs"] = run_pass(engine="legacy", parts={}, **kwargs)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    import numpy
    counts = EngineCounts()
    counts.install()
    profiler = LayerProfiler() if args.profile else None
    speed = HostSpeed()
    clock = raw_clock = time.perf_counter
    if args.calibrate:
        speed.catch_up()
        speed.start_timer()
        clock, raw_clock = speed.scaled, speed.clock
    passes = []
    begin = time.perf_counter()
    while True:
        counts.reset()
        if profiler is not None:
            profiler.start()
        parts: dict = {}
        start, raw_start = clock(), raw_clock()
        outputs = run_pass(engine=None, parts=parts, clock=clock, **kwargs)
        wall, raw_wall = clock() - start, raw_clock() - raw_start
        if profiler is not None:
            profiler.stop()
        exact, engine_s = counts.snapshot()
        if not passes:
            # After one pass, so that the count of passes, which depends
            # on the host's speed, does not move it.
            peak_rss_mb = _peak_rss_mb()
        passes.append({"wall_s": wall, "raw_wall_s": raw_wall,
                       "parts": parts, "counts": exact,
                       "engine_s": engine_s, "outputs": outputs})
        anchors = workloads.ANCHORS.get(args.workload)
        if anchors is not None:
            passes[-1]["paper_err_pct"] = workloads.paper_err_pct(
                anchors(outputs))
        if profiler is not None:
            break
        if (len(passes) >= args.min_passes
                and time.perf_counter() - begin >= args.seconds):
            break
    speed.stop_timer()
    counts.uninstall()
    result.update({
        "speed_samples": speed.samples,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "host": {"python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "engine_tier": workloads.default_tier()},
    })
    if profiler is not None:
        result["layers"] = profiler.split()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
