"""Command-line front end: validate specs, print geometry reports, run checks.

Exit codes are a stable contract: 0 when every applicable check passed,
1 when a check failed, 2 for usage, schema, parse or file errors and for a
value past the int-string limit.  A frame that fails structural validation
gets a report of class ``invalid`` holding only the ``frame-structure``
entry, and exit 1, from every command.  ``--lambda`` values are parameter-free
expressions of the spec grammar, so ``2^3`` and ``(1)`` are values.

``report``, ``check`` and ``example`` run one pipeline, ``_pipeline``: load
the frame and validate it in the user's basis, stop at the ``invalid``
report on failure, else build the adapted frame (``adapted_frame``,
P = diag(I, -I)) and the report with its class, and decide the skew-torsion
connection once.  Its pack, or the ``NotW3Error`` saying why there is none,
goes to the command's own entries: scalars and text sections, a suite, or
the golden comparisons.  Every command reads tau and tau' through one
reader, ``_tau``: off a Riemann tensor a check has built (``curved``), else
off the connection coefficients (``scalar_curvature``).  ``report`` builds
none before its scalars, so its JSON form builds no Riemann tensor;
``check`` and ``example`` run their checks first, so no command builds one
only for tau.  ``validate`` keeps a short path: class ``not-computed``, no
adapted frame, and the Killing check.  ``main`` parses with one parser,
built at import by ``build_parser``, the one place that declares the
arguments.

``example`` is ``check`` on the bundled spec, loaded like any other, plus
the golden comparisons.  It takes no spec (``example SPEC`` is a usage
error), and the family is W3 or W0 at every ``--lambda``, so it always has
a pack.  No known input reaches the ``ValueError`` arm of ``main`` (exit 1,
a bare stderr line).  Every geometry stage and check suite runs on the
adapted frame.  Checks decide whether tensors vanish and the scalars are
invariants, so neither depends on the basis; the report sections and the
witnesses are pulled back to the user's basis.  The golden tables are
Tensors in that basis, evaluated at ``--lambda``, and each comparison is
``tensor_witnesses`` of a computed tensor against its table.

Every check, structural, golden or from a suite, returns one ``CheckResult``
whose ``as_dict()`` is its report entry {id, status, witnesses, reason, details}
(schema 2).  Every pass/fail entry comes from ``frames.check_result``: it
fails exactly when it has a witness, it lists at most 16 witnesses, and its
notes, such as the parametric positivity note and the count of witnesses
dropped, are its reason.
"""

from __future__ import annotations

import argparse
import json
import sys

from .connections import NotW3Error, rpt_connection
from .example import (PARAM_NAMES, bundled_spec_path, compare_scalars, compare_tensor,
                      family_parameters, golden_tables)
from .frames import (FrameAlgebra, SchemaError, _parse_entry, adapted_frame,
                     killing_check, load_spec, spec_digest, validate)
from .geometry import (classify, curvature, curved, fundamental_F, levi_civita,
                       scalar_curvature, square_norm, square_norm_nabla_P,
                       torsion_projections)
from .parser import ParseError
from .scalars import PrintLimitError, Scalar
from .tensors import Tensor
from .theorems import (geometry_checks, rpt_checks, rpt_curvature_p_tensor,
                       run_all, theorem_checks)

SCHEMA_VERSION = 2


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# report assembly


class Report:
    def __init__(self, digest: str, class_label: str):
        self.digest = digest
        self.class_label = class_label
        self.scalars: dict = {}
        self.checks: list = []
        self.sections: list = []  # (title, lines) for the text rendering

    def add_checks(self, results):
        self.checks.extend(r.as_dict() for r in results)

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


def _load_frame(args) -> FrameAlgebra:
    fa = load_spec(args.spec)
    if args.lam is not None:
        parsed = {}
        values = [_parse_entry(part, (), "--lambda[%d]" % k, parsed).value
                  for k, part in enumerate(args.lam.split(","))]
        if len(values) != len(fa.params):
            raise UsageError("--lambda needs %d values for parameters %s"
                             % (len(fa.params), ", ".join(fa.params)))
        fa = fa.substitute(dict(zip(fa.params, values)))
    return fa


def _tensor_lines(fa: FrameAlgebra, t: Tensor, symbol: str) -> list:
    """Nonzero components of a tensor on fa, in the user's basis."""
    entries = fa.to_user(t).nonzero()
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


def _pipeline(args) -> int:
    """report, check and example, up to the command's own entries."""
    fa = _load_frame(args)
    structure = validate(fa)
    if not structure.passed:
        report = Report(spec_digest(fa), "invalid")
        report.add_checks([structure])
        return _emit(report, args)
    af = adapted_frame(fa)
    report = Report(spec_digest(fa), classify(af).label)
    try:
        pack = rpt_connection(af)
    except NotW3Error as exc:
        pack = exc
    args.entries(args, report, af, pack)
    return _emit(report, args)


def _tau(conn) -> Scalar:
    """The scalar curvature of conn: off its Riemann tensor when a check has
    built it, else from the coefficients."""
    return curvature(conn)[2] if curved(conn) else scalar_curvature(conn)


def _add_scalars(report: Report, af: FrameAlgebra, pack) -> dict:
    """tau and |nabla P|^2 of the Levi-Civita connection, then tau' of the
    skew-torsion connection when it exists: added to the report, returned as
    Scalars."""
    scalars = {"tau": _tau(levi_civita(af)), "nabla_P_norm_sq": square_norm_nabla_P(af)}
    if not isinstance(pack, NotW3Error):
        scalars["tau_prime"] = _tau(pack.rpt)
    report.scalars.update((name, str(value)) for name, value in scalars.items())
    return scalars


def _add_sections(report: Report, af: FrameAlgebra, pack):
    """The sections only the text rendering prints."""
    report.sections.append(("structure tensor F (nonzero components)",
                            _tensor_lines(af, fundamental_F(af), "F")))
    report.sections.append(("Levi-Civita connection coefficients",
                            _tensor_lines(af, levi_civita(af).coeffs, "nabla")))
    if isinstance(pack, NotW3Error):
        report.sections.append(("skew-torsion connection", ["skipped: %s" % pack]))
        return
    report.sections.append(("skew torsion T (nonzero components)",
                            _tensor_lines(af, pack.T, "T")))
    report.sections.append(("skew-torsion connection coefficients",
                            _tensor_lines(af, pack.rpt.coeffs, "nabla'")))
    proj = torsion_projections(pack.T, af)
    lines = ["|p%d|^2 = %s" % (pos + 1, square_norm(p, af))
             for pos, p in enumerate(proj)]
    report.sections.append(("torsion projection square norms", lines))
    ptensor = rpt_curvature_p_tensor(pack)
    report.sections.append(("curvature of the skew-torsion connection",
                            ["is a P-tensor: %s" % str(ptensor).lower()]))


def cmd_report(args, report: Report, af: FrameAlgebra, pack):
    _add_scalars(report, af, pack)
    if args.format == "text":
        _add_sections(report, af, pack)
    report.add_checks([validate(af.user)])


_SUITES = {
    "all": run_all,
    "geometry": geometry_checks,
    "rpt": rpt_checks,
    "theorems": theorem_checks,
}


def cmd_check(args, report: Report, af: FrameAlgebra, pack):
    report.add_checks(_SUITES[args.suite](af))
    _add_scalars(report, af, pack)


def cmd_example(args, report: Report, af: FrameAlgebra, pack):
    golden = golden_tables(args.golden)
    scalars = golden.pop("scalars")
    if not af.params:  # the tables hold the family symbolically
        at = dict(zip(PARAM_NAMES, (v.value for v in family_parameters(af.user))))
        golden = {name: t.substitute(at) for name, t in golden.items()}
        scalars = {key: Scalar.constant((), s.substitute(at))
                   for key, s in scalars.items()}
    suite = run_all(af)  # first, so that tau is read off its Riemann tensors
    report.add_checks([
        compare_tensor(af, "torsion", pack.T, golden["torsion"]),
        compare_tensor(af, "connection", pack.rpt.coeffs, golden["connection"]),
        compare_tensor(af, "curvature", curvature(pack.rpt)[0], golden["curvature"]),
        compare_tensor(af, "torsion_derivative", pack.torsion_derivative(),
                       golden["torsion_derivative"]),
        compare_scalars(_add_scalars(report, af, pack), scalars),
    ])
    report.add_checks(suite)


# ---------------------------------------------------------------------------
# argument parsing


def _add_command(sub, name: str, help_text: str, func, **defaults):
    """A subcommand with the common options; spec is positional unless defaulted."""
    p = sub.add_parser(name, help=help_text)
    if "spec" not in defaults:
        p.add_argument("spec", help="frame spec JSON file")
    p.add_argument("--lambda", dest="lam", metavar="a,b,c,d",
                   help="substitute parameter values (such as 1/2) at load time; "
                        "write a negative first value as --lambda=-1,2,3,4")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="stdout form (default text)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the JSON report to a file")
    p.set_defaults(func=func, **defaults)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rptgeo",
        description="Exact geometry of frame algebras with almost product "
                    "structure and their skew-torsion natural connections.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "validate", "structural validation plus the Killing check",
                 cmd_validate)
    _add_command(sub, "report", "class, tensors, connections and scalar summary",
                 _pipeline, entries=cmd_report)
    p = _add_command(sub, "check", "run a checker suite", _pipeline, entries=cmd_check)
    p.add_argument("--suite", choices=sorted(_SUITES), default="all")
    p = _add_command(sub, "example", "check the bundled family against the "
                                     "golden tables", _pipeline, entries=cmd_example,
                     spec=str(bundled_spec_path()))
    p.add_argument("--golden", metavar="DIR",
                   help="override the bundled golden-table directory")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (SchemaError, ParseError, UsageError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PrintLimitError as exc:  # a computed value, such as tau, too long to print
        print("error: %s: %s" % (args.spec, exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
