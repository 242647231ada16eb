"""The ``service-mix`` workload: a live ``repro-hbm serve`` under load.

Each server instance is spawned with a fresh store directory, so it
starts from an empty store and precomputes its surface.  Two client
threads then drive it closed-loop (each sends its next request only
after the previous reply), one request class per phase, so every class
is timed on its own and no figure mixes classes under invented weights:

* **warm phases**, in this order: store-exact ``/v1/sweep`` grid points
  (the service's *warm* latency), interpolated off-grid burst lengths
  (its *interpolated* latency), ``/v1/estimate``, ``/v1/advise``; each
  client walks its own seeded list;
* **cold phase** — both clients walk the *same* seeded list of points
  off the precomputed surface, so each point is simulated once while
  the other client's duplicate joins the in-flight job (or reads the
  fresh store entry), and store writes land beside reads.  The list is
  walked in ``COLD_CHUNKS`` consecutive chunks.

With a :class:`~hostspeed.HostSpeed` the client process samples the
host speed after the server's start-up, each phase and each chunk (the
server idle), and scales each phase and chunk by the samples on either
side (see ``hostspeed``).  Start-up is not scaled: it spans three
processes on every CPU, which samples taken around it did not track.

All checks run after the timed phases: every answer's ``source`` must
match its request class, ``/v1/stats`` must count exactly one
simulation per distinct cold point, and one cold answer per server must
equal an in-process ``experiments.surface.simulate_point``.
"""

from __future__ import annotations

import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import hostspeed
from repro.experiments import fig3_burst_length
from repro.experiments.surface import (PatternPoint, sample_from_report,
                                       simulate_point)
from repro.params import DEFAULT_PLATFORM
from repro.service.client import ServiceClient, ServiceClientError
from repro.types import FabricKind, Pattern, RWRatio

#: Simulation horizon of the served points and of the start-up surface.
#: A third of the ``serve`` default, so three cold starts and 108 cold
#: points fit in one run; the surface is still the full 20-point Fig. 3
#: grid.
SERVE_CYCLES = 1_000
SERVERS = 3
#: Warm requests per client and class, one phase per class in this
#: order.  The two ``/v1/sweep`` classes get enough requests for ten
#: samples beyond their p99 over the run's three servers.
WARM_PER_CLIENT = {"store": 170, "interpolated": 170, "estimate": 60,
                   "advise": 60}
CLIENTS = 2
#: Chunks of the cold list, with a host-speed sample between chunks.
COLD_CHUNKS = 12
STOP_TIMEOUT_S = 20.0

GRID_BURSTS = (1, 2, 4, 8, 16)
OFF_GRID_BURSTS = (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15)
ANALYTIC_RWS = ("2:1", "1:0", "0:1", "1:1")
#: Read:write ratios off the surface (the surface holds only 2:1).  With
#: the burst lengths they give 9 cold points per (fabric, pattern)
#: stratum, 108 in all: the cold p90 has ten samples beyond it.
COLD_RWS = ("1:0", "0:1", "1:1")
COLD_BURSTS = (4, 8, 16)

#: Store-exact grid points whose answers the paper anchors.
ANCHOR_REQUESTS = (("SCS", 1), ("SCS", 2), ("SCS", 16), ("CCS", 16),
                   ("CCRA", 16))

#: Request class -> the ``source`` field its answers must carry.
EXPECTED_SOURCE = {
    "store": ("store",),
    "interpolated": ("interpolated",),
    "estimate": ("analytic",),
    "advise": ("analytic",),
    "cold": ("simulated", "deduped", "store"),
}


@dataclass(frozen=True)
class Request:
    cls: str
    endpoint: str
    params: Tuple[Tuple[str, Any], ...]


@dataclass
class Sample:
    request: Request
    client: int
    seconds: float
    status: int
    body: Dict[str, Any]


def _sweep(cls: str, **params: Any) -> Request:
    return Request(cls, "sweep", tuple(sorted(params.items())))


def warm_lists(rng: random.Random,
               anchors: bool) -> Dict[str, List[Request]]:
    """One client's seeded request list per warm class."""
    patterns = [p.name for p in Pattern]
    store = ([_sweep("store", pattern=p, burst=b) for p, b in ANCHOR_REQUESTS]
             if anchors else [])
    out = {
        "store": store + [
            _sweep("store", pattern=rng.choice(patterns),
                   burst=rng.choice(GRID_BURSTS))
            for _ in range(WARM_PER_CLIENT["store"] - len(store))],
        "interpolated": [
            _sweep("interpolated", pattern=rng.choice(patterns),
                   burst=rng.choice(OFF_GRID_BURSTS))
            for _ in range(WARM_PER_CLIENT["interpolated"])],
    }
    for cls in ("estimate", "advise"):
        out[cls] = [Request(cls, cls, tuple(sorted({
            "pattern": rng.choice(patterns),
            "fabric": rng.choice(("xlnx", "mao")),
            "rw": rng.choice(ANALYTIC_RWS),
            "burst": rng.choice(GRID_BURSTS),
            "outstanding": rng.choice((8, 16, 32)),
        }.items()))) for _ in range(WARM_PER_CLIENT[cls])]
    return out


def cold_lists(rng: random.Random) -> List[List[Request]]:
    """One list of distinct off-surface points per server.

    Every off-surface point (fabric, pattern, read:write ratio, burst
    length) is dealt to exactly one server, and every server gets the
    same number of points of each (fabric, pattern) stratum, so a run's
    simulation work is the same for every seed; the seed deals the
    points and orders each list.
    """
    lists: List[List[Request]] = [[] for _ in range(SERVERS)]
    for fabric in FabricKind:
        for pattern in Pattern:
            keys = [(rw, b) for rw in COLD_RWS for b in COLD_BURSTS]
            rng.shuffle(keys)
            for i, (rw, burst) in enumerate(keys):
                lists[i % SERVERS].append(_sweep(
                    "cold", fabric=fabric.value, pattern=pattern.name,
                    rw=rw, burst=burst))
    for points in lists:
        rng.shuffle(points)
    return lists


def serve_cycles(short: bool) -> int:
    return 300 if short else SERVE_CYCLES


def _point(request: Request, cycles: int) -> PatternPoint:
    p = dict(request.params)
    r, w = p.get("rw", "2:1").split(":")
    return PatternPoint(fabric=FabricKind(p.get("fabric", "xlnx")),
                        pattern=Pattern[p["pattern"]],
                        burst_len=p["burst"], rw=RWRatio(int(r), int(w)),
                        cycles=cycles)


class Server:
    """One spawned server and the timestamps of its start-up lines."""

    LISTEN = re.compile(r"listening on (http://\S+)")

    def __init__(self, argv: List[str], env: Dict[str, str],
                 cwd: str) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True,
                                     env=env, cwd=cwd)
        self.lines: List[str] = []
        surface_begin = surface_end = None
        self.url: Optional[str] = None
        try:
            for line in self.proc.stdout:
                now = time.perf_counter()
                self.lines.append(line.rstrip())
                if line.startswith("precomputing sweep surface"):
                    surface_begin = now
                elif line.startswith("surface ready"):
                    surface_end = now
                match = self.LISTEN.search(line)
                if match:
                    self.url = match.group(1)
                    break
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.started
        if self.url is None:
            self.stop()
            raise RuntimeError("server exited before listening:\n"
                               + "\n".join(self.lines[-20:]))
        self.surface_build_s = (surface_end - surface_begin
                                if surface_begin and surface_end else None)
        # Keep the pipe drained so the server never blocks on stdout.
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()

    def _read_rest(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip())

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing")

    def stop(self) -> int:
        """SIGINT (the graceful drain path), then wait; kill on timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            rc = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=5.0)
        self.proc.stdout.close()
        return rc


def _drive(client: ServiceClient, index: int, requests: List[Request],
           out: List[Sample], barrier: threading.Barrier) -> None:
    barrier.wait()
    for req in requests:
        start = time.perf_counter()
        try:
            body = getattr(client, req.endpoint)(**dict(req.params))
            status = 202 if body.get("status") == "pending" else 200
        except ServiceClientError as exc:
            body, status = exc.body, exc.status
        except Exception as exc:  # noqa: BLE001 — recorded as a failure
            body, status = {"error": repr(exc)}, 0
        out.append(Sample(req, index, time.perf_counter() - start, status,
                          body))


def _phase(url: str, lists: List[List[Request]]) -> Tuple[float, List[Sample]]:
    """Run one closed-loop phase; returns its wall time and samples."""
    samples: List[List[Sample]] = [[] for _ in lists]
    barrier = threading.Barrier(len(lists) + 1)
    threads = [threading.Thread(target=_drive,
                                args=(ServiceClient(url, timeout=60.0), i,
                                      reqs, samples[i], barrier),
                                daemon=True)
               for i, reqs in enumerate(lists)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return wall, [s for per in samples for s in per]


@dataclass
class ServerRun:
    setup_s: float
    surface_build_s: Optional[float]
    #: Wall time of the phases, scaled with a ``HostSpeed``.
    wall_s: float
    raw_wall_s: float
    #: Wall time of each warm class's phase.
    warm_wall_s: Dict[str, float]
    peak_rss_mb: float
    warm: List[Sample]
    cold: List[Sample]
    stats: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    instruments: Optional[Dict[str, Any]] = None


def run_server(index: int, seed: int, argv: List[str], env: Dict[str, str],
               cwd: str, instruments_path: Optional[str] = None,
               short: bool = False,
               speed: Optional[hostspeed.HostSpeed] = None) -> ServerRun:
    """Spawn server ``index``, run every phase against it, stop it."""
    kernel_s = 0.0

    def scaled(seconds: float) -> float:
        """``seconds`` of the stretch since the last sampling event,
        scaled with that event and a new one (unscaled without
        ``speed``)."""
        nonlocal kernel_s
        if speed is None:
            return seconds
        opened, kernel_s = kernel_s, speed.catch_up()
        return seconds * hostspeed.factor(opened, kernel_s)

    rng = random.Random(f"service-mix:{seed}:{index}")
    lists = [warm_lists(rng, anchors=(i == 0)) for i in range(CLIENTS)]
    cold = cold_lists(random.Random(f"service-mix:{seed}:cold"))[index]
    if short:
        lists = [{c: w[:20] for c, w in per.items()} for per in lists]
        cold = cold[:3]
    server = Server(argv, env, cwd)
    if speed is not None:
        kernel_s = speed.catch_up()
    wall_s = 0.0
    try:
        warm_wall: Dict[str, float] = {}
        warm: List[Sample] = []
        for cls in WARM_PER_CLIENT:
            warm_wall[cls], samples = _phase(
                server.url, [per[cls] for per in lists])
            wall_s += scaled(warm_wall[cls])
            warm += samples
        cold_wall = 0.0
        cold_samples: List[Sample] = []
        size = -(-len(cold) // COLD_CHUNKS)
        for first in range(0, len(cold), size):
            wall, samples = _phase(server.url,
                                   [cold[first:first + size]] * CLIENTS)
            wall_s += scaled(wall)
            cold_wall += wall
            cold_samples += samples
        stats = ServiceClient(server.url).stats()
        rss = server.peak_rss_mb()
    finally:
        rc = server.stop()
    run = ServerRun(setup_s=server.setup_s,
                    surface_build_s=server.surface_build_s,
                    wall_s=wall_s,
                    raw_wall_s=sum(warm_wall.values()) + cold_wall,
                    warm_wall_s=warm_wall,
                    peak_rss_mb=rss, warm=warm, cold=cold_samples,
                    stats=stats)
    if rc != 0:
        run.problems.append(f"server {index} exited with {rc}")
    if instruments_path is not None:
        with open(instruments_path, encoding="utf-8") as fh:
            run.instruments = json.load(fh)
    run.problems += check(run, cold, rng, serve_cycles(short))
    return run


def check(run: ServerRun, cold: List[Request], rng: random.Random,
          cycles: int) -> List[str]:
    """The output gate of one server; returns one line per mismatch."""
    problems = []
    for s in run.warm + run.cold:
        if s.status != 200:
            problems.append(f"{s.request}: HTTP {s.status} {s.body}")
        elif s.body.get("source") not in EXPECTED_SOURCE[s.request.cls]:
            problems.append(f"{s.request}: source {s.body.get('source')!r}")
    queue = run.stats["queue"]
    if queue["simulated"] != len(cold) or queue["failed"]:
        problems.append(f"simulated {queue['simulated']} / failed "
                        f"{queue['failed']} for {len(cold)} cold points")
    probe = rng.choice(cold)
    point = _point(probe, cycles)
    expected = sample_from_report(
        point, simulate_point((point, DEFAULT_PLATFORM)))
    for s in run.cold:
        if s.request != probe or s.status != 200:
            continue
        got = s.body["result"]
        for name in ("total_gbps", "read_gbps", "write_gbps",
                     "fraction_of_peak"):
            if got[name] != getattr(expected, name):
                problems.append(f"{probe}: {name} {got[name]!r} != "
                                f"in-process {getattr(expected, name)!r}")
    return problems


def anchors(run: ServerRun) -> List[Tuple[float, float]]:
    """``(served, paper)`` for the anchored Fig. 3 grid answers."""
    ref = fig3_burst_length.PAPER_REFERENCE
    got = {}
    for s in run.warm:
        p = dict(s.request.params)
        if s.request.cls == "store" and s.status == 200:
            got[(p["pattern"], p["burst"])] = s.body["result"]["total_gbps"]
    gain = got[("SCS", 2)] / got[("SCS", 1)] - 1.0
    return [
        (got[("SCS", 16)], ref["scs_bl16_gbps"]),
        (got[("CCS", 16)], ref["ccs_hotspot_both_gbps"]),
        (got[("CCRA", 16)],
         ref["ccra_vs_single_pch_factor"] * ref["ccs_hotspot_both_gbps"]),
        (gain, ref["scs_bl1_to_bl2_gain"]),
    ]


def serve_argv(store_dir: str, wrapper: Optional[List[str]] = None,
               short: bool = False) -> List[str]:
    """The ``serve`` command line, with its default precompute workers.

    A ``wrapper`` (the count hook and the profiler) sees only the server
    process, so a wrapped server precomputes its surface in-process
    (``--workers 1``) to keep those simulations in its counts and its
    layer split.
    """
    serve = ["serve", "--port", "0", "--store-dir", store_dir,
             "--cycles", str(serve_cycles(short))]
    if wrapper is None:
        return [sys.executable, "-m", "repro"] + serve
    return [sys.executable] + wrapper + ["--"] + serve + ["--workers", "1"]
