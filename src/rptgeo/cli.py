"""Command-line front end: validate specs, print geometry reports, run checks.

Exit codes are a stable contract: 0 when every applicable check passed,
1 when a check failed, 2 for usage, schema, parse or file errors.  A frame
that fails structural validation gets a report of class ``invalid`` holding
only the ``frame-structure`` entry, and exit 1, from every command.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .connections import NotW3Error, rpt_connection
from .example import (build_example, compare_connection, compare_scalars,
                      compare_tensor, family_parameters, golden_tables,
                      _sub_map)
from .frames import (CheckReport, FrameAlgebra, SchemaError, killing_check,
                     load_spec, spec_digest, validate)
from .geometry import (classify, curvature, fundamental_F, levi_civita,
                       square_norm, square_norm_nabla_P, torsion_projections)
from .parser import ParseError
from .tensors import Tensor, coefficient_tensor
from .theorems import (geometry_checks, rpt_checks, rpt_curvature_p_tensor,
                       run_all, theorem_checks)

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# report assembly


def _check_entry(result) -> dict:
    if isinstance(result, CheckReport):
        check_id, status = result.name, "pass" if result.passed else "fail"
        reason = "; ".join(result.notes) or None
    else:
        check_id, reason = result.check_id, result.reason or None
        if result.skipped:
            status = "skip"
        elif not result.hypotheses_satisfied:
            status, reason = "skip", "hypotheses not satisfied"
        else:
            status = "pass" if result.conclusion_holds else "fail"
    return {
        "id": check_id,
        "status": status,
        "witnesses": [w.as_dict() for w in result.witnesses],
        "reason": reason,
        "details": dict(getattr(result, "details", {}) or {}),
    }


class Report:
    def __init__(self, digest: str, class_label: str):
        self.digest = digest
        self.class_label = class_label
        self.scalars: dict = {}
        self.checks: list = []
        self.sections: list = []  # (title, lines) for the text rendering

    def add_checks(self, results):
        self.checks.extend(_check_entry(r) for r in results)

    @property
    def exit_status(self) -> int:
        return 1 if any(c["status"] == "fail" for c in self.checks) else 0

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "input_digest": self.digest,
            "class": self.class_label,
            "scalars": dict(self.scalars),
            "checks": self.checks,
            "exit_status": self.exit_status,
        }

    def to_text(self) -> str:
        lines = ["input digest: %s" % self.digest, "class: %s" % self.class_label]
        for name, value in self.scalars.items():
            lines.append("%s = %s" % (_SCALAR_LABELS.get(name, name), value))
        for title, body in self.sections:
            lines.append("")
            lines.append(title + ":")
            lines.extend("  " + line for line in body)
        if self.checks:
            lines.append("")
            lines.append("checks:")
            for entry in self.checks:
                line = "  %s: %s" % (entry["id"], entry["status"])
                if entry["reason"]:
                    line += " (%s)" % entry["reason"]
                lines.append(line)
                if entry["details"]:
                    detail = ", ".join("%s=%s" % kv for kv in sorted(entry["details"].items()))
                    lines.append("      [%s]" % detail)
                for w in entry["witnesses"][:4]:
                    lines.append("      witness %s%s: expected %s, got %s"
                                 % (w["label"] and w["label"] + " " or "",
                                    list(w["index"]), w["expected"], w["actual"]))
        return "\n".join(lines)


_SCALAR_LABELS = {
    "tau": "tau",
    "tau_prime": "tau'",
    "nabla_P_norm_sq": "|nabla P|^2",
}


def _emit(report: Report, args) -> int:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    json_path = getattr(args, "json", None)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report.exit_status


# ---------------------------------------------------------------------------
# input loading


def _parse_lambda(text: str) -> list:
    values = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "/" in part:
                num, den = part.split("/", 1)
                values.append(Fraction(int(num), int(den)))
            else:
                values.append(Fraction(int(part)))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError("bad --lambda value '%s': %s" % (part, exc)) from exc
    return values


def _load_frame(args) -> FrameAlgebra:
    fa = load_spec(args.spec)
    lam = getattr(args, "lam", None)
    if lam:
        values = _parse_lambda(lam)
        if len(values) != len(fa.params):
            raise UsageError("--lambda needs %d values for parameters %s"
                             % (len(fa.params), ", ".join(fa.params)))
        fa = fa.substitute(dict(zip(fa.params, values)))
    return fa


def _tensor_lines(t: Tensor, symbol: str) -> list:
    entries = t.nonzero()
    if not entries:
        return ["(all components zero)"]
    return ["%s[%s] = %s" % (symbol, ",".join(str(k + 1) for k in idx), value)
            for idx, value in entries]


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    fa = _load_frame(args)
    report = Report(spec_digest(fa), "not-computed")
    structure = validate(fa)
    report.add_checks([structure])
    if structure.passed:
        report.add_checks([killing_check(fa)])
    return _emit(report, args)


def _emit_invalid(fa: FrameAlgebra, structure: CheckReport, args) -> int:
    """The report of a frame that failed structural validation."""
    report = Report(spec_digest(fa), "invalid")
    report.add_checks([structure])
    return _emit(report, args)


def _add_scalars(report: Report, fa: FrameAlgebra) -> dict:
    """tau and |nabla P|^2 of the Levi-Civita connection, then tau' of the
    skew-torsion connection when it exists: added to the report, returned
    as Scalars."""
    scalars = {"tau": curvature(levi_civita(fa))[2],
               "nabla_P_norm_sq": square_norm_nabla_P(fa)}
    try:
        scalars["tau_prime"] = curvature(rpt_connection(fa).rpt)[2]
    except NotW3Error:
        pass
    report.scalars.update((name, str(value)) for name, value in scalars.items())
    return scalars


def cmd_report(args) -> int:
    fa = _load_frame(args)
    structure = validate(fa)
    if not structure.passed:
        return _emit_invalid(fa, structure, args)
    report = Report(spec_digest(fa), classify(fa).label)
    _add_scalars(report, fa)
    report.sections.append(("structure tensor F (nonzero components)",
                            _tensor_lines(fundamental_F(fa), "F")))
    report.sections.append(("Levi-Civita connection coefficients",
                            _tensor_lines(coefficient_tensor(levi_civita(fa).coeffs),
                                          "nabla")))
    try:
        pack = rpt_connection(fa)
        report.sections.append(("skew torsion T (nonzero components)",
                                _tensor_lines(pack.T, "T")))
        report.sections.append(("skew-torsion connection coefficients",
                                _tensor_lines(coefficient_tensor(pack.rpt.coeffs),
                                              "nabla'")))
        proj = torsion_projections(pack.T, fa)
        lines = ["|p%d|^2 = %s" % (pos + 1, square_norm(p, fa))
                 for pos, p in enumerate(proj)]
        report.sections.append(("torsion projection square norms", lines))
        ptensor = rpt_curvature_p_tensor(pack).conclusion_holds
        report.sections.append(("curvature of the skew-torsion connection",
                                ["is a P-tensor: %s" % str(ptensor).lower()]))
    except NotW3Error as exc:
        report.sections.append(("skew-torsion connection",
                                ["skipped: %s" % exc]))
    report.add_checks([structure])
    return _emit(report, args)


_SUITES = {
    "all": run_all,
    "geometry": geometry_checks,
    "rpt": rpt_checks,
    "theorems": theorem_checks,
}


def cmd_check(args) -> int:
    fa = _load_frame(args)
    structure = validate(fa)
    if not structure.passed:
        return _emit_invalid(fa, structure, args)
    report = Report(spec_digest(fa), classify(fa).label)
    report.add_checks(_SUITES[args.suite](fa))
    _add_scalars(report, fa)
    return _emit(report, args)


def cmd_example(args) -> int:
    if args.lam:
        values = _parse_lambda(args.lam)
        if len(values) != 4:
            raise UsageError("the example takes exactly four --lambda values")
        fa = build_example(values)
    else:
        fa = build_example()
    report = Report(spec_digest(fa), classify(fa).label)
    pack = rpt_connection(fa)
    tables = golden_tables(args.golden)
    convert = _sub_map(fa, tables["torsion"].params, family_parameters(fa))
    rp, _, _ = curvature(pack.rpt)
    d = pack.torsion_derivative()
    scalars = _add_scalars(report, fa)
    comparisons = [
        compare_tensor("torsion", pack.T, tables["torsion"], convert),
        compare_connection("connection", pack.rpt.coeffs, tables["connection"], convert),
        compare_tensor("curvature", rp, tables["curvature"], convert),
        compare_tensor("torsion_derivative", d, tables["torsion_derivative"], convert),
        compare_scalars(scalars, tables["scalars"], convert),
    ]
    report.add_checks(comparisons)
    report.add_checks(run_all(fa))
    return _emit(report, args)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("spec", help="frame spec JSON file")
    sub.add_argument("--lambda", dest="lam", metavar="a,b,c,d",
                     help="substitute rational parameter values at load time; "
                          "write a negative first value as --lambda=-1,2,3,4")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="stdout form (default text)")
    sub.add_argument("--json", metavar="PATH",
                     help="also write the JSON report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rptgeo",
        description="Exact geometry of frame algebras with almost product "
                    "structure and their skew-torsion natural connections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural validation plus the Killing check")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="class, tensors, connections and scalar summary")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("check", help="run a checker suite")
    _add_common(p)
    p.add_argument("--suite", choices=sorted(_SUITES), default="all")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("example", help="build the bundled family and compare "
                                       "against the golden tables")
    p.add_argument("--lambda", dest="lam", metavar="a,b,c,d",
                   help="four rational parameter values (default: symbolic); "
                        "write a negative first value as --lambda=-1,2,3,4")
    p.add_argument("--golden", metavar="DIR",
                   help="override the bundled golden-table directory")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (SchemaError, ParseError, UsageError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (NotW3Error, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
