"""Tests for the process-parallel sweep helper."""

import os
import pickle
import re
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.errors import SweepError
from repro.experiments.parallel import default_workers, parallel_sweep


def _square(x):
    return x * x


def _pid_tag(x):
    return (x, os.getpid())


def _crash_on(x):
    value, crash = x
    if crash:
        os._exit(137)  # worker SIGKILLed (simulated OOM)
    return value * value


class TestParallelSweep:
    def test_inline_path(self):
        assert parallel_sweep(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_empty(self):
        assert parallel_sweep(_square, [], workers=4) == []

    def test_single_item_runs_inline(self):
        out = parallel_sweep(_pid_tag, [7], workers=4)
        assert out == [(7, os.getpid())]

    def test_pool_preserves_order(self):
        out = parallel_sweep(_square, list(range(10)), workers=2)
        assert out == [x * x for x in range(10)]

    def test_pool_actually_uses_processes(self):
        out = parallel_sweep(_pid_tag, list(range(6)), workers=3)
        values = [v for v, _pid in out]
        assert values == list(range(6))

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() >= 1

    def test_default_workers_warns_on_invalid_env(self, monkeypatch):
        """A typo'd REPRO_WORKERS must not be silently swallowed — the
        warning names the bad value so the user can fix it."""
        monkeypatch.setenv("REPRO_WORKERS", "bogus")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS='bogus'"):
            assert default_workers() >= 1

    def test_fig3_sweep_parallel_matches_serial(self):
        """Determinism across execution strategies."""
        from repro.experiments import fig3_burst_length as f3
        from repro.types import Pattern
        kwargs = dict(cycles=1500, patterns=(Pattern.SCS,),
                      burst_lengths=(1, 16))
        serial = f3.run(workers=1, **kwargs)
        parallel = f3.run(workers=2, **kwargs)
        assert [(r.pattern, r.direction, r.burst_len, r.total_gbps)
                for r in serial] == \
               [(r.pattern, r.direction, r.burst_len, r.total_gbps)
                for r in parallel]


class TestCrashSafety:
    def test_worker_kill_surfaces_as_sweep_error_not_broken_pool(self):
        """Acceptance scenario: one point SIGKILLs its worker.  The
        sweep finishes every other point and reports the casualty as a
        structured hole riding on SweepError — never BrokenProcessPool."""
        items = [(i, i == 2) for i in range(6)]
        with pytest.raises(SweepError, match="sweep incomplete") as info:
            parallel_sweep(_crash_on, items, workers=2)
        outcome = info.value.outcome
        assert outcome.holes == [2]
        assert outcome.failures[0].kind == "crash"
        assert sorted(outcome.completed) == [0, 1, 3, 4, 5]
        assert [outcome.results[i] for i in (0, 1, 3, 4, 5)] == \
               [0, 1, 9, 16, 25]

    def test_sweep_error_carries_partial_results_with_holes(self):
        items = [(i, i == 1) for i in range(4)]
        with pytest.raises(SweepError) as info:
            parallel_sweep(_crash_on, items, workers=2)
        out = info.value.outcome.results
        assert out[0] == 0 and out[2] == 4 and out[3] == 9
        assert out[1] is None  # the hole

    def test_inline_error_is_structured_too(self):
        with pytest.raises(SweepError) as info:
            parallel_sweep(_square, ["bad", 2], workers=1)
        outcome = info.value.outcome
        assert outcome.failures[0].kind == "error"
        assert "TypeError" in outcome.failures[0].detail
        assert outcome.results[1] == 4


class TestSweepCommandExit:
    """Sweep commands end an incomplete sweep with its outcome and a
    checkpoint note, never a traceback."""

    def test_failed_chaos_point_exits_1_with_summary(self, monkeypatch,
                                                      capsys):
        import repro.faults.chaos as chaos_mod
        from repro.experiments.runner import main

        def poisoned(args):
            raise RuntimeError("poisoned scenario")

        monkeypatch.setattr(chaos_mod, "_suite_point", poisoned)
        rc = main(["chaos", "--cycles", "300", "--workers", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        n = len(chaos_mod.SCENARIOS)
        assert f"sweep incomplete: 0/{n} completed, {n} failed (error)" \
            in err
        assert "RuntimeError: poisoned scenario" in err
        assert "keeps no checkpoint" in err

    def test_interrupted_run_exits_130_naming_the_cache(self, monkeypatch,
                                                        capsys, tmp_path):
        import repro.experiments.runner as runner_mod

        def interrupted(keys, cycles):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_mod, "_cmd_run", interrupted)
        monkeypatch.setenv("REPRO_SIM_CACHE", "1")
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
        assert runner_mod.main(["run", "fig2"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert f"result cache at {tmp_path}; re-run" in err

        monkeypatch.delenv("REPRO_SIM_CACHE_DIR")
        assert runner_mod.main(["run", "fig2"]) == 130
        assert "set REPRO_SIM_CACHE_DIR" in capsys.readouterr().err


_CHILD_SWEEP = textwrap.dedent("""
    import sys, time
    from repro.experiments.parallel import parallel_sweep
    from repro.params import DEFAULT_PLATFORM
    from repro.sim.cache import SimCache, sweep_key

    def point(x):
        time.sleep(0.35)
        return x * x

    def key_fn(x):
        return sweep_key("kill-regress", DEFAULT_PLATFORM, x=x)

    cache = SimCache(directory=sys.argv[1])
    parallel_sweep(point, list(range(40)), workers=2,
                   cache=cache, key_fn=key_fn)
""")


class TestStreamingCheckpoint:
    def test_sigkilled_sweep_keeps_completed_points_on_disk(self, tmp_path):
        """Regression: cache.put used to be deferred until the whole map
        returned, so killing the sweep discarded every finished point.
        Now each completion is spilled immediately: SIGKILL the sweep
        after k completions and k entries must survive, all loadable.
        The child runs in its own session so the kill takes its pool
        workers down with it instead of orphaning them."""
        cache_dir = tmp_path / "cache"
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SWEEP, str(cache_dir)],
            env={**os.environ, "PYTHONPATH": "src",
                 "REPRO_SIM_CACHE": "1"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if len(list(cache_dir.glob("*.pkl"))) >= 3:
                    break
                if proc.poll() is not None:
                    pytest.fail("sweep child exited before 3 completions")
                time.sleep(0.05)
            else:
                pytest.fail("no checkpointed entries appeared within 60s")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the whole group already exited
            proc.wait(timeout=30)
        survivors = list(cache_dir.glob("*.pkl"))
        assert len(survivors) >= 3
        for path in survivors:  # atomic writes: every survivor loads
            with open(path, "rb") as fh:
                key, value = pickle.load(fh)
            x = int(dict(key[-1])["x"])  # sweep_key folds the point in
            assert value == x * x

    def test_sigint_then_rerun_matches_a_clean_run(self, tmp_path):
        """End to end through the CLI: SIGINT ``run fig3`` mid-sweep,
        then re-run it.  Nothing of the process group survives the
        interrupt, the re-run's report equals a clean run's apart from
        the elapsed-time field, and the re-run writes only the entries
        the interrupted run had not."""
        if not os.path.isdir("/proc"):
            pytest.skip("needs /proc to list the process group")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

        def start(cache_dir, out):
            return subprocess.Popen(
                [sys.executable, "-m", "repro", "run", "fig3",
                 "--cycles", "1500", "--out", str(out)],
                env={**os.environ, "PYTHONPATH": "src",
                     "REPRO_SIM_CACHE": "1",
                     "REPRO_SIM_CACHE_DIR": str(cache_dir),
                     "REPRO_WORKERS": "2"},
                cwd=root, start_new_session=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)

        def entries(cache_dir):
            return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
                    for p in cache_dir.glob("*.pkl")}

        def report(out):
            return re.sub(r"\(\d+\.\ds\)", "(N.Ns)", out.read_text())

        resumed_dir = tmp_path / "resumed"
        proc = start(resumed_dir, tmp_path / "interrupted.txt")
        try:
            deadline = time.monotonic() + 120.0
            while len(entries(resumed_dir)) < 6:
                if proc.poll() is not None:
                    pytest.fail("fig3 finished before it was interrupted")
                if time.monotonic() > deadline:
                    pytest.fail("no checkpointed entries within 120s")
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            _out, err = proc.communicate(timeout=60)
            assert proc.returncode == 130, err.decode()
            assert b"re-run the same command to resume" in err
            deadline = time.monotonic() + 10.0
            while _live_group_members(proc.pid):
                assert time.monotonic() < deadline, \
                    f"survivors: {_live_group_members(proc.pid)}"
                time.sleep(0.1)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=30)
        kept = entries(resumed_dir)
        assert not (tmp_path / "interrupted.txt").exists()

        for cache_dir, out in ((resumed_dir, tmp_path / "resumed.txt"),
                               (tmp_path / "clean", tmp_path / "clean.txt")):
            run = start(cache_dir, out)
            _out, err = run.communicate(timeout=600)
            assert run.returncode == 0, err.decode()
        assert report(tmp_path / "resumed.txt") == \
            report(tmp_path / "clean.txt")
        after = entries(resumed_dir)
        clean = entries(tmp_path / "clean")
        assert set(after) == set(clean) and len(kept) < len(clean)
        # The re-run left every checkpointed entry untouched.
        assert {name: after[name] for name in kept} == kept


def _live_group_members(pgid):
    """Pids of the process group ``pgid`` that are still running
    (zombies awaiting their reaper do not count)."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        # "pid (comm) state ppid pgrp ..." — comm may hold spaces.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(entry))
    return live
