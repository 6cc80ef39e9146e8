"""Output checks: what a CLI command printed against what it should print.

A command's output is reduced to its exit code, class, check id -> status
and report scalars, plus the sha256 of the raw report.  The digest is
recorded but never gated on, so reports may gain fields.
"""

from __future__ import annotations

import hashlib
import json

GATED = ("exit", "class", "checks", "scalars")


def summarize(code: int, stdout: str) -> dict:
    summary = {"exit": code, "class": None, "checks": None, "scalars": None,
               "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    try:
        report = json.loads(stdout)
    except ValueError:
        return summary
    if isinstance(report, dict):
        summary["class"] = report.get("class")
        summary["checks"] = {c.get("id"): c.get("status")
                             for c in report.get("checks", ())}
        summary["scalars"] = report.get("scalars")
    return summary


def mismatches(summary: dict, expected: dict) -> list:
    """Gated fields where the summary differs from the expectation."""
    return ["%s: expected %r, got %r" % (name, expected[name], summary.get(name))
            for name in GATED if summary.get(name) != expected[name]]


def check_run(workload_commands: dict, reference, results: list) -> tuple:
    """Check every executed command.

    workload_commands maps a command key to its construction expectation;
    reference (or None) maps a key to the frozen default-seed output.
    Returns (failed count, failure messages, digests matching the reference).
    """
    failed, messages, same_digest = 0, [], 0
    for entry in results:
        key, summary = entry["key"], entry["summary"]
        problems = mismatches(summary, workload_commands[key])
        if reference is not None:
            frozen = reference.get(key)
            if frozen is None:
                problems.append("no frozen reference")
            else:
                problems += ["reference " + p for p in mismatches(summary, frozen)]
                same_digest += summary["sha256"] == frozen.get("sha256")
        if problems:
            failed += 1
            messages.append("%s: %s" % (key, "; ".join(problems)))
    return failed, messages, same_digest
