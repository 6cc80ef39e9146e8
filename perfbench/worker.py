"""One workload process: import the CLI, warm up, run timed passes.

Usage: ``python3 perfbench/worker.py PLAN RESULT [--setup-only]``.

PLAN is the JSON written by ``run.py``: the warm-up argv, the passes of
CLI argvs, whether passes cycle, the run length and whether to trace.
RESULT receives set-up time, pass and command times, a summary of every
command's output and, when tracing, the per-layer metrics.  Nothing of
rptgeo is imported before the set-up clock starts.

Times are scaled to a reference machine speed.  A machine shared with other
tenants can change speed by up to 1.8x within seconds (measured on a
2-vCPU Linux VM), which moves every pure-Python workload alike.  A fixed pure-Python kernel is timed
right before each timed region and, from a SIGALRM timer, every
SAMPLE_EVERY_S inside it; a region's time, less the kernel samples taken
inside it, is multiplied by KERNEL_REF_S over the mean kernel time.  The
raw wall times are kept in RESULT as well.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# untraced runs time at least this many passes, so the command-time
# percentiles always rest on the same mix of commands
MIN_PASSES = 2
KERNEL_STEPS = 500
KERNEL_REF_S = 0.0025     # kernel time at the reference speed
SAMPLE_EVERY_S = 0.1


def _kernel():
    """Fixed work shaped like rptgeo's: Fraction arithmetic stored in a dict."""
    acc, table = Fraction(0), {}
    for i in range(KERNEL_STEPS):
        acc = acc + Fraction(3, 7) * Fraction(i % 13 + 1, 5)
        table[(i % 7, i % 5)] = acc
    return acc


class SpeedProbe:
    """Times the kernel before and during timed regions."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # time the timer handler took inside regions

    def sample(self) -> float:
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - t0

    def timed(self, fn):
        """Run fn(); returns (result, scaled seconds, raw seconds)."""
        first, spent = len(self.samples), self.spent
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            t0 = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        busy = raw - (self.spent - spent)
        speed = statistics.fmean(self.samples[first:])
        return result, busy * KERNEL_REF_S / speed, raw

    def speed_ratio(self, first: int = 0) -> float:
        """Reference kernel time over the mean kernel time since sample ``first``."""
        return KERNEL_REF_S / statistics.fmean(self.samples[first:])


def _run_command(main, argv, probe=None):
    """Run one CLI command in-process; returns (scaled s, raw s, exit, stdout).

    Without a probe both times are the raw wall time."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if probe is None:
            t0 = time.perf_counter()
            code = main(argv)
            scaled = raw = time.perf_counter() - t0
        else:
            code, scaled, raw = probe.timed(lambda: main(argv))
    return scaled, raw, code, out.getvalue()


def _run_pass(main, one_pass, results, probe, tracer=None):
    """Run the pass's commands in order; returns the pass's scaled time."""
    from perfbench.verify import summarize

    total = 0.0
    for entry in one_pass:
        if tracer is not None:
            tracer.begin_command(len(results))
        scaled, raw, code, stdout = _run_command(main, entry["argv"], probe)
        total += scaled
        results.append({"key": entry["key"], "wall_s": scaled, "raw_wall_s": raw,
                        "summary": summarize(code, stdout)})
    return total


def _passes(plan):
    """Yield the plan's passes, cycling through them when the plan allows."""
    k = 0
    while plan["cycle"] or k < len(plan["passes"]):
        yield plan["passes"][k % len(plan["passes"])]
        k += 1


def _setup(plan, probe):
    """Import the CLI and run the warm-up command; returns (main, scaled s)."""
    def work():
        sys.path.insert(0, str(ROOT / "src"))
        from rptgeo.cli import main
        _run_command(main, plan["warmup"])
        return main

    main, scaled, _ = probe.timed(work)
    return main, scaled


def run(plan: dict, setup_only: bool) -> dict:
    probe = SpeedProbe()
    main, setup_s = _setup(plan, probe)
    if setup_only:
        return {"setup_s": setup_s}

    sys.path.insert(0, str(ROOT))
    seconds = plan["seconds"]
    commands, pass_walls, traced_walls = [], [], []
    passes = _passes(plan)
    start = time.perf_counter()

    def run_passes(run_main, walls, minimum, tracer=None):
        """Run passes while the next one is expected to end within the run."""
        durations = []
        for one_pass in passes:
            t0 = time.perf_counter()
            walls.append(_run_pass(run_main, one_pass, commands, probe, tracer))
            durations.append(time.perf_counter() - t0)
            if len(durations) >= minimum and \
                    time.perf_counter() - start + statistics.median(durations) > seconds:
                return

    tracer = None
    if plan["trace"]:
        # one untraced pass gives the base of trace.overhead_frac
        pass_walls.append(_run_pass(main, next(passes), commands, probe))
        from perfbench.tracer import Tracer
        tracer = Tracer()
        traced_from = len(probe.samples)
        with tracer.installed():
            from rptgeo.cli import main as traced_main
            run_passes(traced_main, traced_walls, 1, tracer)
    else:
        run_passes(main, pass_walls, MIN_PASSES)
    result = {
        "setup_s": setup_s,
        "pass_walls": pass_walls,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed_ratio": probe.speed_ratio(),
    }
    if tracer is not None:
        from perfbench.tracer import overhead_frac
        layers = tracer.metrics(len(traced_walls), probe.speed_ratio(traced_from))
        layers["trace.overhead_frac"] = (overhead_frac(traced_walls, pass_walls[0]), "ratio")
        result["traced_walls"] = traced_walls
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    plan_path, result_path = Path(argv[0]), Path(argv[1])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    result = run(plan, "--setup-only" in argv[2:])
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
