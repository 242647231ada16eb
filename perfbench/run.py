"""The repository benchmark: host cost of the simulator, end to end and
per layer.  See ``perfbench/README.md`` for workloads and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--short]

The first form runs one workload and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every metric name and unit comes from ``BENCHMARK.json``.  The second
form runs every registered workload in both modes and prints every
metric with its unit; ``--short`` shrinks all horizons (the smoke mode).

Run it from the repository root.  The program is imported from
``src/`` of that checkout, never from an installed package, and all
scratch files stay under ``.perfbench-run/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import hostspeed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench-run")

#: Each of these silently changes what is measured (engine tier,
#: sanitizer, telemetry, worker count, a shared or disabled result cache).
PINNED_ENV = ("REPRO_ENGINE", "REPRO_FAST_PATH", "REPRO_SANITIZE",
              "REPRO_TELEMETRY", "REPRO_WORKERS", "REPRO_SIM_CACHE_DIR",
              "REPRO_SIM_CACHE_MEM", "REPRO_SIM_CACHE")

WORKLOADS = ("artifact-matrix", "fault-starve", "service-mix",
             "fuzz-campaign")
#: Set-up spawns per run; the median is reported.
SETUP_SAMPLES = 7
#: Timed passes of an in-process workload, at least; more while
#: ``--seconds`` have not passed.  ``wall_s`` takes each part's median.
TIMED_PASSES = 1
#: A run that has not finished after this many seconds fails without a
#: result.
RUN_DEADLINE_S = 170

class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def registry() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def preflight() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing "
                         f"(run from the repository root)")
    pinned = [name for name in PINNED_ENV if name in os.environ]
    if pinned:
        raise BenchError(f"refusing to run with {', '.join(pinned)} set: "
                         f"each changes the measured program; unset it")


def child_env(tmp: str, **extra: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    env["TMPDIR"] = tmp
    env.update(extra)
    return env


def host_info(seed: int) -> Dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "seed": seed}


def _on_deadline(signum, frame):
    raise BenchError(f"run deadline of {RUN_DEADLINE_S} s exceeded")


def spawn_child(role: str, args, tmp: str, *flags: str,
                env_extra: Optional[Dict[str, str]] = None,
                ) -> Tuple[Optional[float], Dict[str, Any]]:
    """Run ``child.py`` in ``role``; returns (spawn-to-READY s, result)."""
    argv = [sys.executable, os.path.join(BENCH, "child.py"), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--tmpdir", tmp] + list(flags)
    if args.short:
        argv.append("--short")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=child_env(tmp, **(env_extra or {})))
    ready = None
    result: Dict[str, Any] = {}
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        rc = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0:
        raise BenchError(f"{role} child exited with {rc}")
    return ready, result


def _compare(outputs: List[Dict], reference: List[Dict],
             what: str) -> List[str]:
    """One line per output whose report differs from the reference."""
    if [o["name"] for o in outputs] != [r["name"] for r in reference]:
        return [f"{what}: outputs differ from the reference list"]
    return [f"{what}: {o['name']} differs from the legacy tier"
            for o, r in zip(outputs, reference) if o["report"] != r["report"]]


class Tally:
    """Operations attempted and failed, with one line per failure.

    ``problems`` are failed output checks: any makes the run incorrect.
    ``findings`` are the fuzz campaign's reports of defects in the
    program (``failed_cases`` cases hold them): they are failed
    operations of a correct run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: List[str] = []
        self.findings: List[str] = []
        self.failed_cases = 0

    def add(self, attempted: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.problems += problems


def _fuzz_check(passes: List[Dict], expected: List[str], tally: Tally,
                what: str) -> None:
    """Gate one run's campaign passes and count their findings.

    The gate: every pass completes, walks the deterministic case list,
    and repeats the first pass's verdicts case for case; no case shows
    an ``engine-diff`` finding (a tier disagreeing with the legacy
    reference, the gate of the other workloads).  Every other finding
    is a defect the campaign reports in the program: it counts as one
    failed case, stands in ``failed`` and ``error_rate``, and is printed,
    but it is the campaign's correct output, so it does not make the run
    incorrect.
    """
    first = [o["report"]["failures"] for o in passes[0]["outputs"][:-1]]
    for i, p in enumerate(passes):
        label = f"{what} pass {i}"
        cases = p["outputs"][:-1]
        problems = []
        if [o["name"] for o in cases] != expected:
            problems.append(f"{label}: case digests differ from the "
                            f"campaign's deterministic case list")
        if not p["outputs"][-1]["report"]["complete"]:
            problems.append(f"{label}: campaign incomplete")
        if [o["report"]["failures"] for o in cases] != first:
            problems.append(f"{label}: verdicts differ from pass 0")
        findings = []
        for o in cases:
            for f in o["report"]["failures"]:
                line = (f"{label}: finding on {o['report']['label']}: "
                        f"[{f['kind']}] {f['detail']}")
                (problems if f["kind"] == "engine-diff" else
                 findings).append(line)
        tally.add(len(cases), problems)
        tally.findings += findings
        tally.failed_cases += sum(bool(o["report"]["failures"])
                                  for o in cases)


def _check_pass(args, result: Dict, reference: Optional[Dict],
                tally: Tally, what: str) -> None:
    if args.workload == "fuzz-campaign":
        _fuzz_check(result["passes"], result["expected_digests"], tally,
                    what)
        return
    for i, p in enumerate(result["passes"]):
        tally.add(len(p["outputs"]), _compare(
            p["outputs"], reference["outputs"], f"{what} pass {i}"))


def _check_counts(passes: List[Dict], tally: Tally, what: str) -> None:
    """Exact counts must repeat across runs of the same seed."""
    first = passes[0]["counts"]
    for i, p in enumerate(passes[1:], 1):
        diff = sorted(k for k in first if p["counts"][k] != first[k])
        tally.add(1, [f"{what}: exact counts differ on run {i}: {diff}"]
                  if diff else [])


def _layer_metrics(layers: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    total = sum(v["self_s"] for v in layers.values())
    out = {}
    for name, v in layers.items():
        out[f"{name}.self_share"] = v["self_s"] / total if total else 0.0
        out[f"{name}.calls"] = v["calls"]
    return out


def _count_metrics(counts: Dict[str, int], engine_s: float
                   ) -> Dict[str, float]:
    out = {k: v for k, v in counts.items()
           if k not in ("sim.engine_runs", "sim.aborted_runs")}
    stepped = counts["sim.stepped_cycles"]
    out["sim.step_us"] = engine_s / stepped * 1e6 if stepped else 0.0
    return out


def run_inprocess(args, tmp: str, tally: Tally
                  ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    # Every child runs alone: a busy second CPU slowed interpreter
    # start-up by about a third on the 2-vCPU host this was tuned on.
    # The measuring child of an untraced run scales its parts to the
    # reference host speed (see ``hostspeed``).
    reference = None
    if args.workload != "fuzz-campaign":
        reference = spawn_child("reference", args, tmp,
                                env_extra={"REPRO_ENGINE": "legacy"})[1]
    setups: List[Optional[float]] = []
    if not args.trace:
        setups = [spawn_child("setup", args, tmp)[0]
                  for _ in range(SETUP_SAMPLES)]
        runs = {"timed": spawn_child("measure", args, tmp,
                                     "--seconds", str(args.seconds),
                                     "--min-passes", str(TIMED_PASSES),
                                     "--calibrate")[1]}
    else:
        runs = {"untraced": spawn_child("measure", args, tmp,
                                        "--min-passes", "1")[1],
                "traced": spawn_child("measure", args, tmp,
                                      "--profile")[1]}
    for what, result in runs.items():
        _check_pass(args, result, reference, tally, what)
    _check_counts([p for r in runs.values() for p in r["passes"]], tally,
                  " and ".join(runs))
    first = next(iter(runs.values()))
    passes = first["passes"]
    metrics: Dict[str, float] = {}
    detail: Dict[str, Any] = {"host": first["host"],
                              "pass_wall_s": [p["wall_s"] for p in passes],
                              "pass_parts_s": [p["parts"] for p in passes],
                              "counts": passes[0]["counts"]}
    if not args.trace:
        metrics["wall_s"] = sum(
            statistics.median(p["parts"][part] for p in passes)
            for part in passes[0]["parts"])
        metrics["raw.wall_s"] = statistics.median(p["raw_wall_s"]
                                                  for p in passes)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = first["peak_rss_mb"]
        detail["setup_samples"] = setups
        detail["speed_samples"] = first["speed_samples"]
    else:
        traced = runs["traced"]["passes"][0]
        metrics.update(_layer_metrics(runs["traced"]["layers"]))
        metrics.update(_count_metrics(passes[0]["counts"],
                                      passes[0]["engine_s"]))
        metrics["trace.overhead_ratio"] = traced["wall_s"] / passes[0]["wall_s"]
        metrics["wall_s"] = passes[0]["wall_s"]
        detail["traced_wall_s"] = traced["wall_s"]
    if "paper_err_pct" in passes[0]:
        metrics["paper_err_pct"] = passes[0]["paper_err_pct"]
    if args.workload == "fuzz-campaign":
        cases = passes[0]["outputs"][:-1]
        metrics["conformance.cases"] = len(cases)
        metrics["conformance.case_ms"] = 1e3 * statistics.median(
            o["case_s"] for o in cases)
        metrics["runtime.journal_records"] = (
            passes[0]["outputs"][-1]["report"]["journal_records"])
    return metrics, detail


def _pct(values: List[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_service(args, tmp: str, tally: Tally
                ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    sys.path[:0] = [SRC, BENCH]
    import numpy
    import service_mix as sm
    from workloads import default_tier, paper_err_pct
    env = child_env(tmp)
    wrapper = os.path.join(BENCH, "serve_wrapped.py")
    # Untraced servers are driven with host-speed samples between phases.
    speed = (hostspeed.HostSpeed(cpus=sorted(os.sched_getaffinity(0)))
             if not args.trace else None)

    def one(index: int, profile: Optional[bool]) -> "sm.ServerRun":
        """Server ``index``: the plain ``serve`` command (``profile`` is
        None), or wrapped with the count hook and optionally the
        profiler."""
        store = tempfile.mkdtemp(prefix="store-", dir=tmp)
        instruments = None
        wrap = None
        if profile is not None:
            instruments = os.path.join(tmp, f"instruments-{index}-"
                                            f"{int(profile)}.json")
            wrap = [wrapper, "--out", instruments] + (
                ["--profile"] if profile else [])
        run = sm.run_server(index, args.seed,
                            sm.serve_argv(store, wrap, args.short), env,
                            ROOT, instruments, short=args.short,
                            speed=speed if profile is None else None)
        attempted = len(run.warm) + len(run.cold) + 2
        tally.add(attempted, [f"server {index}: {p}" for p in run.problems])
        return run

    metrics: Dict[str, float] = {}
    runs = [one(i, None if not args.trace else False)
            for i in range(sm.SERVERS)]
    paper = [a for r in runs for a in sm.anchors(r)]
    metrics["paper_err_pct"] = paper_err_pct(paper)
    detail: Dict[str, Any] = {
        "setup_samples": [r.setup_s for r in runs],
        "server_wall_s": [r.wall_s for r in runs],
        "stats": [r.stats for r in runs],
        # The servers inherit this environment, so they resolve the same
        # engine tier.
        "host": {"numpy": numpy.__version__, "engine_tier": default_tier()},
    }
    if not args.trace:
        metrics["wall_s"] = sum(r.wall_s for r in runs)
        metrics["raw.wall_s"] = sum(r.raw_wall_s for r in runs)
        metrics["setup_s"] = statistics.median(r.setup_s for r in runs)
        metrics["peak_rss_mb"] = statistics.median(r.peak_rss_mb
                                                   for r in runs)
        detail["speed_samples"] = speed.samples
    warm = [s for r in runs for s in r.warm]

    def warm_ms(cls: str) -> List[float]:
        return [1e3 * s.seconds for s in warm if s.request.cls == cls]

    store = [s for s in warm if s.request.cls == "store"]
    answered = [s for s in store if s.status == 200]
    # The two clients ask for each cold point at the same moment and get
    # nearly the same answer time, so only client 0's sample counts.
    cold_ms = [1e3 * s.seconds for r in runs for s in r.cold
               if s.client == 0]
    queues = [r.stats["queue"] for r in runs]
    stores = [r.stats["store"] for r in runs]
    hits = sum(s["hits"] for s in stores)
    lookups = hits + sum(s["misses"] for s in stores)
    metrics.update({
        "warm_p50_ms": statistics.median(warm_ms("store")),
        "warm_p99_ms": _pct(warm_ms("store"), 99),
        "warm_rps": len(store) / sum(r.warm_wall_s["store"] for r in runs),
        "interp_p50_ms": statistics.median(warm_ms("interpolated")),
        "interp_p99_ms": _pct(warm_ms("interpolated"), 99),
        "estimate_p50_ms": statistics.median(warm_ms("estimate")),
        "advise_p50_ms": statistics.median(warm_ms("advise")),
        "cold_p50_ms": statistics.median(cold_ms),
        "cold_p90_ms": _pct(cold_ms, 90),
        "service.handler_p50_ms": statistics.median(
            s.body["latency_ms"] for s in answered),
        "service.framing_p50_ms": statistics.median(
            1e3 * s.seconds - s.body["latency_ms"] for s in answered),
        "service.simulated": sum(q["simulated"] for q in queues),
        "service.deduped": sum(q["deduped"] for q in queues),
        "service.store_hits": sum(q["store_hits"] for q in queues),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
    })
    builds = [r.surface_build_s for r in runs if r.surface_build_s]
    if builds:
        metrics["experiments.surface_build_s"] = statistics.median(builds)
    detail["samples"] = {"warm": len(warm), "store": len(store),
                         "cold": len(cold_ms)}
    if args.trace:
        traced = one(0, True)
        first = runs[0].instruments
        tally.add(1, [] if traced.instruments["counts"] == first["counts"]
                  else ["exact counts differ between the traced and the "
                        "untraced server 0"])
        counts = {k: sum(r.instruments["counts"][k] for r in runs)
                  for k in first["counts"]}
        metrics.update(_count_metrics(
            counts, sum(r.instruments["engine_s"] for r in runs)))
        metrics.update(_layer_metrics(traced.instruments["layers"]))
        metrics["trace.overhead_ratio"] = traced.wall_s / runs[0].wall_s
        detail["counts"] = counts
    return metrics, detail


def select(workload: str, trace: int, measured: Dict[str, float],
           reg: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The metrics this mode reports, with units from the registry.

    A metric the workload does not exercise (say, service latency on the
    artifact matrix) reads 0.
    """
    specs = reg["per_layer"] if trace else reg["end_to_end"]
    units = {m["name"]: m["unit"] for m in specs}
    out = {}
    for name, unit in units.items():
        value = measured.get(name, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out


def run_one(args) -> int:
    preflight()
    reg = registry()
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    tally = Tally()
    try:
        if args.workload == "service-mix":
            measured, detail = run_service(args, tmp, tally)
        else:
            measured, detail = run_inprocess(args, tmp, tally)
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp, ignore_errors=True)
    correct = not tally.problems
    failed = len(tally.problems) + tally.failed_cases
    attempted = max(tally.attempted, 1)
    measured["error_rate"] = failed / attempted
    metrics = select(args.workload, args.trace, measured, reg)
    detail.update(workload=args.workload, trace=args.trace,
                  host=dict(host_info(args.seed), **detail.get("host", {})),
                  measured=measured, problems=tally.problems,
                  findings=tally.findings)
    results = os.path.join(SCRATCH, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True, default=str)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("host " + json.dumps(detail["host"], sort_keys=True))
    for problem in tally.problems:
        print(f"FAIL {problem}")
    for finding in tally.findings:
        print(f"FINDING {finding}")
    for key in sorted(measured):
        flag = "" if key in metrics else "   (not reported in this mode)"
        print(f"  {key:32s} {measured[key]!r}{flag}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every registered workload in both modes; check names and units."""
    preflight()
    reg = registry()
    bad = 0
    for spec in reg["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__),
                    "--workload", spec["name"], "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.short:
                argv.append("--short")
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{spec['name']} trace={trace}: no result "
                      f"(exit {proc.returncode})")
                bad += 1
                continue
            wanted = reg["per_layer"] if trace else reg["end_to_end"]
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if not result.get("correct"):
                problems.append(f"incorrect: {result.get('failed')} failed")
            got = result.get("metrics", {})
            for m in wanted:
                entry = got.get(m["name"])
                if entry is None or entry.get("unit") != m["unit"]:
                    problems.append(f"{m['name']} missing or unit != "
                                    f"{m['unit']}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"unregistered metrics {sorted(extra)}")
            print(f"== {spec['name']} trace={trace} correct="
                  f"{result.get('correct')} attempted="
                  f"{result.get('attempted')} failed={result.get('failed')}")
            for name, entry in got.items():
                print(f"   {name:32s} {entry['value']!r} {entry['unit']}")
            for p in problems:
                print(f"   PROBLEM {p}")
            bad += bool(problems)
    print("all metrics emitted with their units" if not bad
          else f"{bad} workload/mode combinations failed")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: BENCHMARK.json's "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every registered workload in both modes")
    ap.add_argument("--short", action="store_true",
                    help="short horizons (smoke mode); not a measurement")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("--workload or --all is required")
    try:
        if args.seconds is None:
            args.seconds = registry()["run_seconds"]
        return run_all(args) if args.all else run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
