"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (any checkout holding ``src/rptgeo``).  It
writes the seeded corpus under ``.bench_work/``, measures set-up in fresh
processes, runs the timed passes in one fresh single-threaded workload
process, checks every command's output and prints one JSON object as the
last line of standard output.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones of a traced
run.  The corpus is never timed.
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_PROBES = 4           # fresh set-up processes besides the workload process
DEADLINE_S = 170.0         # the whole run, corpus and set-up included


def parse_args(argv=None):
    from perfbench.corpus import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _worker(plan_path: Path, result_path: Path, deadline: float, setup_only=False) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
            str(plan_path), str(result_path)] + (["--setup-only"] if setup_only else [])
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(argv, cwd=str(ROOT), stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("workload process exited with %d" % proc.returncode)
    return json.loads(result_path.read_text(encoding="utf-8"))


def end_to_end(setups, result) -> dict:
    walls = [c["wall_s"] for c in result["commands"]]
    return {
        "wall_s": (statistics.median(result["pass_walls"]), "s"),
        "op_p50_ms": (statistics.median(walls) * 1000.0, "ms"),
        "op_p90_ms": (statistics.quantiles(walls, n=10, method="inclusive")[8] * 1000.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def measure(args, work: Path) -> dict:
    from perfbench import corpus, verify

    deadline = time.monotonic() + DEADLINE_S
    built = corpus.generate(args.workload, args.seed, work / "specs")
    plan = {
        "warmup": built.warmup,
        "passes": [[{"key": c.key, "argv": c.argv} for c in p] for p in built.passes],
        "cycle": built.cycle,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    setups = [_worker(plan_path, result_path, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = _worker(plan_path, result_path, deadline)
    setups.append(result["setup_s"])

    reference = None
    if args.seed == corpus.DEFAULT_SEED:
        frozen = json.loads(REFERENCE.read_text(encoding="utf-8"))
        reference = frozen.get(args.workload, {})
    expected = {c.key: c.expect for c in built.commands()}
    failed, messages, same_digest = verify.check_run(expected, reference, result["commands"])
    for line in messages[:20]:
        print("output check failed: " + line, file=sys.stderr)

    attempted = len(result["commands"])
    passes = len(result["pass_walls"]) + len(result.get("traced_walls", ()))
    note = "%s seed %d: %d passes, %d commands (timing samples), %d failed; " \
        "times scaled by %.3f to the reference speed" % (
            args.workload, args.seed, passes, attempted, failed, result["speed_ratio"])
    if reference is not None:
        note += ", %d/%d raw reports identical to the frozen reference" % (same_digest, attempted)
    print(note)

    metrics = result["layers"] if args.trace else end_to_end(setups, result)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "rptgeo" / "cli.py").is_file():
        print("error: no rptgeo sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    # on SIGTERM, unwind so the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        outcome = measure(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
