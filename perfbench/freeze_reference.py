"""Freeze the default-seed outputs of every workload command.

    python3 perfbench/freeze_reference.py

Generates each workload's corpus for the default seed, runs every distinct
command once in-process and writes ``perfbench/reference.json``: exit code,
class, check statuses, scalars and the raw-report sha256 per command key.
It refuses to write when an output disagrees with its construction
expectation, so a frozen reference never locks in a wrong answer.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import corpus, verify  # noqa: E402
from perfbench.run import REFERENCE  # noqa: E402
from perfbench.worker import _run_command  # noqa: E402


def main() -> int:
    from rptgeo.cli import main as cli_main

    work = ROOT / ".bench_work" / "freeze"
    frozen, problems = {}, []
    try:
        for workload in corpus.WORKLOADS:
            built = corpus.generate(workload, corpus.DEFAULT_SEED, work / workload)
            entries = {}
            for cmd in built.commands():
                if cmd.key in entries:
                    continue
                _, _, code, stdout = _run_command(cli_main, cmd.argv)
                summary = verify.summarize(code, stdout)
                problems += ["%s %s: %s" % (workload, cmd.key, p)
                             for p in verify.mismatches(summary, cmd.expect)]
                entries[cmd.key] = summary
                print(workload, cmd.key, summary["exit"], summary["class"], flush=True)
            frozen[workload] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
