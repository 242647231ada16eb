"""Run ``repro-hbm serve`` with the benchmark's instruments attached.

``python3 perfbench/serve_wrapped.py --out FILE [--profile] -- serve ...``

Installs the exact-count hook (and, with ``--profile``, the layer
profiler on every server thread), runs the unmodified command line
through ``repro.experiments.runner.main``, and after the graceful
SIGINT shutdown writes the counts and the layer split to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from layers import EngineCounts, LayerProfiler
    from repro.experiments.runner import main as repro_main
    counts = EngineCounts()
    counts.install()
    profiler = LayerProfiler() if args.profile else None
    if profiler is not None:
        profiler.start()
    try:
        rc = repro_main(argv)
    finally:
        if profiler is not None:
            profiler.stop()
        exact, engine_s = counts.snapshot()
        out = {"counts": exact, "engine_s": engine_s}
        if profiler is not None:
            out["layers"] = profiler.split()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
