"""Command-line contract: byte-identical reports, exit codes and JSON shape."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rptgeo import (FrameAlgebra, Scalar, build_example, cli, frames, geometry,
                    save_spec, theorems)
from rptgeo.example import bundled_spec_path

from perfbench import verify
from perfbench.tracer import Tracer

from helpers import (random_frames, scaled_family_frame, sheared_family_frame,
                     single_bracket_frame, six_dim_frame)

FIXTURES = Path(__file__).parent / "fixtures"
SPEC = str(bundled_spec_path())


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _fixture_argv(name, tmp_path):
    """Command line whose stdout is frozen in tests/fixtures/<name>."""
    saved = {"check_single_bracket.json": single_bracket_frame,
             "check_six_dim.json": six_dim_frame,
             "check_sheared_family.json": sheared_family_frame,
             "report_single_bracket.txt": single_bracket_frame,
             "report_single_bracket.json": single_bracket_frame,
             "report_scaled_family.txt": scaled_family_frame}
    if name in saved:
        path = tmp_path / "frame.json"
        save_spec(saved[name](), path)
        json_format = ["--format", "json"] if name.endswith(".json") else []
        return [name.split("_")[0], str(path)] + json_format
    return {
        "example_lambda_1234.json": ["example", "--lambda=1,2,3,4", "--format", "json"],
        "check_bundled.json": ["check", SPEC, "--format", "json"],
        "check_family_w0.json": ["check", SPEC, "--lambda=0,0,0,0", "--format", "json"],
        "check_family_w0.txt": ["check", SPEC, "--lambda=0,0,0,0"],
        "report_bundled.txt": ["report", SPEC],
        "report_bundled.json": ["report", SPEC, "--format", "json"],
    }[name]


# every command carries validate's notes in "reason"; the text fixtures
# freeze the skip reasons and details lines; the single-bracket reports
# freeze the non-W3 path: the skipped connection section and no tau'; the
# scaled-family report freezes the printing of polynomials with rational
# content over rational-function frames; the sheared-family check freezes a
# symbolic frame whose product structure depends on a parameter
@pytest.mark.parametrize("name", ["example_lambda_1234.json", "check_bundled.json",
                                  "check_single_bracket.json", "check_six_dim.json",
                                  "check_sheared_family.json",
                                  "check_family_w0.json",
                                  "check_family_w0.txt", "report_bundled.txt",
                                  "report_bundled.json", "report_single_bracket.txt",
                                  "report_single_bracket.json",
                                  "report_scaled_family.txt"])
def test_output_matches_frozen_fixture(name, tmp_path, capsys):
    code, out, _ = run_cli(_fixture_argv(name, tmp_path), capsys)
    assert code == 0
    assert out == (FIXTURES / name).read_text(encoding="utf-8")


def test_validate_matches_frozen_fixture(tmp_path, capsys):
    # the single-bracket frame is valid but its associated metric is not a
    # Killing metric, so validate reports the Killing witnesses and exits 1
    path = tmp_path / "single_bracket.json"
    save_spec(single_bracket_frame(), path)
    code, out, _ = run_cli(["validate", str(path), "--format", "json"], capsys)
    assert code == 1
    assert out == (FIXTURES / "validate_single_bracket.json").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# invalid frames stop at the structural report


def _p_incompatible_frame():
    """Family at (1,2,3,4) with P = diag(1,1,-1,-1) plus a 1 at (4,1): an
    involution with zero trace that is not orthogonal for the metric."""
    fa = build_example((1, 2, 3, 4))
    one, zero = Scalar.one(()), Scalar.zero(())
    p = [[zero] * 4 for _ in range(4)]
    for k, sign in enumerate((1, 1, -1, -1)):
        p[k][k] = one if sign > 0 else -one
    p[3][0] = one
    return FrameAlgebra(4, (), fa.c, fa.g, p)


def _singular_metric_frame():
    fa = build_example((1, 2, 3, 4))
    one, zero = Scalar.one(()), Scalar.zero(())
    g = [[one if i // 2 == j // 2 else zero for j in range(4)] for i in range(4)]
    return FrameAlgebra(4, (), fa.c, g, fa.p)


def _jacobi_violating_frame():
    fa = single_bracket_frame()
    one = Scalar.one(())
    c = [[list(cell) for cell in row] for row in fa.c]
    c[0][2][0], c[2][0][0] = one, -one  # [e1,e3] = e1 next to [e1,e2] = e3
    return FrameAlgebra(4, (), c, fa.g, fa.p)


INVALID = {"p-incompatible": _p_incompatible_frame,
           "singular-metric": _singular_metric_frame,
           "jacobi-violating": _jacobi_violating_frame}


@pytest.mark.parametrize("kind", ["jacobi-violating", "p-incompatible"])
def test_validate_on_invalid_frame_matches_frozen_fixture(kind, tmp_path, capsys):
    # freezes the witness values and their order, not only the status
    path = tmp_path / "frame.json"
    save_spec(INVALID[kind](), path)
    code, out, _ = run_cli(["validate", str(path), "--format", "json"], capsys)
    assert code == 1
    name = "validate_%s.json" % kind.replace("-", "_")
    assert out == (FIXTURES / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", sorted(INVALID))
def test_check_on_invalid_frame_gives_the_structural_report(kind, tmp_path, capsys):
    path = tmp_path / "frame.json"
    save_spec(INVALID[kind](), path)
    code, out, err = run_cli(["check", str(path), "--format", "json"], capsys)
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["class"] == "invalid" and data["exit_status"] == 1
    assert [(c["id"], c["status"]) for c in data["checks"]] == [("frame-structure", "fail")]
    assert run_cli(["report", str(path), "--format", "json"], capsys)[1] == out
    assert run_cli(["validate", str(path)], capsys)[0] == 1


# ---------------------------------------------------------------------------
# exit codes and JSON shape


def _dense_six_dim_spec():
    """A 6-dim spec whose 15 brackets have every component 1: 120 Jacobi
    witnesses, far past the cap."""
    n = 6
    return {"dimension": n, "parameters": [],
            "brackets": [{"left": i, "right": j,
                          "result": {str(k): "1" for k in range(1, n + 1)}}
                         for i in range(1, n + 1) for j in range(i + 1, n + 1)],
            "metric": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
            "product": [["1" if abs(i - j) == n // 2 else "0" for j in range(n)]
                        for i in range(n)]}


@pytest.mark.parametrize("command", ["validate", "report", "check"])
def test_frame_structure_witnesses_are_capped(command, tmp_path, capsys):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(_dense_six_dim_spec()), encoding="utf-8")
    code, out, _ = run_cli([command, str(path), "--format", "json"], capsys)
    assert code == 1
    [entry] = json.loads(out)["checks"]
    assert (entry["id"], entry["status"]) == ("frame-structure", "fail")
    assert len(entry["witnesses"]) == 16
    assert entry["reason"] == "104 further mismatches suppressed"


def test_every_command_emits_one_frame_structure_entry(capsys):
    # the structural entry is validate's own, notes in the reason, whichever
    # command reports it
    entries = []
    for argv in (["validate", SPEC], ["report", SPEC], ["check", SPEC],
                 ["check", SPEC, "--suite", "geometry"], ["example"]):
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0, argv
        entries += [c for c in json.loads(out)["checks"] if c["id"] == "frame-structure"]
    assert entries == [{"id": "frame-structure", "status": "pass", "witnesses": [],
                        "reason": "positivity unverified (parametric)",
                        "details": {}}] * 5


@pytest.mark.parametrize("command", ["validate", "report", "check"])
def test_bundled_spec_exits_zero_with_the_documented_keys(command, capsys):
    code, out, _ = run_cli([command, SPEC, "--format", "json"], capsys)
    assert code == 0
    assert sorted(json.loads(out)) == ["checks", "class", "exit_status",
                                       "input_digest", "scalars", "schema"]


# frames saved as specs for the traced commands: the constant family, the
# family in two parametric bases, an 8-dim conjugate with a dense constant P,
# a non-W3 frame and a 6-dim one
TRACED_FRAMES = {"constant": lambda: build_example((1, 2, 3, 5)),
                 "sheared": sheared_family_frame, "scaled": scaled_family_frame,
                 "conj8": lambda: random_frames()[-1],
                 "single-bracket": single_bracket_frame, "six-dim": six_dim_frame}


@pytest.mark.parametrize("argv", [["validate", SPEC], ["report", SPEC], ["check", SPEC],
                                  ["example"], ["example", "--lambda=1,2,3,4"]] + [
    [command, name] for name in TRACED_FRAMES for command in ("validate", "report", "check")],
                         ids=["validate", "report", "check", "example", "example-lambda"] + [
    "%s-%s" % (command, name) for name in TRACED_FRAMES
    for command in ("validate", "report", "check")])
def test_a_traced_command_reports_what_an_untraced_one_does(argv, tmp_path, capsys):
    # the benchmark's tracer wraps Tensor.map_slot, among others, and reads
    # its matrix argument as nested rows; every command runs unchanged under it
    if argv[1:] and argv[1] in TRACED_FRAMES:
        save_spec(TRACED_FRAMES[argv[1]](), tmp_path / "frame.json")
        argv = [argv[0], str(tmp_path / "frame.json")]
    argv = argv + ["--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    tracer = Tracer()
    with tracer.installed():
        tracer.begin_command(0)
        traced_code, traced, _ = run_cli(argv, capsys)
    assert verify.summarize(code, out) == verify.summarize(traced_code, traced)
    spans = {s.name for s in tracer.spans}
    assert {"cli.main", "tensors.map_slot"} <= spans
    if argv[0] == "example":
        assert {"example.compare", "example.golden_tables"} <= spans


def test_main_parses_with_the_parser_built_at_import(monkeypatch, capsys):
    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    for argv in (["validate", SPEC], ["report", SPEC], ["check", SPEC], ["example"]):
        assert run_cli(argv, capsys)[0] == 0, argv


def test_usage_and_input_errors_exit_two(tmp_path, capsys):
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text('{"dimension": 3}', encoding="utf-8")
    too_many = tmp_path / "params.json"
    too_many.write_text(json.dumps(dict(json.loads(Path(SPEC).read_text(encoding="utf-8")),
                                        parameters=["l%d" % k for k in range(1, 66)])),
                        encoding="utf-8")
    for argv in (["check", SPEC, "--lambda=1,x,3,4"],
                 ["check", SPEC, "--lambda=1,2"],
                 # the spec grammar: ASCII digits only, no digit separators
                 ["check", SPEC, "--lambda=\u0661,2,3,4"],
                 ["check", SPEC, "--lambda=1_0,2,3,4"],
                 ["example", "--lambda=1,2,3"],
                 ["check", SPEC, "--lambda="],
                 ["example", "--lambda="],
                 ["report", str(tmp_path / "missing.json")],
                 ["check", str(bad_schema)],
                 # a packed exponent has fields for 64 parameters
                 ["validate", str(too_many)],
                 ["example", "--symbolic"],
                 # example takes no spec: it loads only the bundled one
                 ["example", SPEC]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == "" and err, argv


@pytest.mark.parametrize("field", ["brackets[0].result[\u00b2]", "brackets[0].left",
                                   "brackets[0].right"])
def test_malformed_bracket_exits_two(field, tmp_path, capsys):
    # a superscript digit passes str.isdigit but not int(); a JSON true is a
    # Python int but not an index
    data = json.loads(Path(SPEC).read_text(encoding="utf-8"))
    bracket = data["brackets"][0]
    if field.endswith("]"):
        bracket["result"]["\u00b2"] = "1"
    else:
        bracket[field.split(".")[1]] = True
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: " % field)


@pytest.mark.parametrize("key", ["01", "١", "+1", " 1"])
def test_bracket_key_must_be_a_canonical_decimal(key, tmp_path, capsys):
    # "01" beside "1" would overwrite its coefficient, and the Arabic-Indic
    # one passes str.isdecimal and int(); both name e_1 in other spelling
    data = json.loads(Path(SPEC).read_text(encoding="utf-8"))
    data["brackets"][0]["result"] = {"1": "2", key: "3"}
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: brackets[0].result[%s]: " % key)


def _bundled_with_metric_entry(text):
    data = json.loads(Path(SPEC).read_text(encoding="utf-8"))
    data["metric"][0][0] = text
    return data


@pytest.mark.parametrize("text", ["\u00b2", "\u0661", "1" * 5000,
                                  "(" * 3000 + "1" + ")" * 3000, "2^20000",
                                  "(l1+l2+l3)^60", "l1^65537", "(l2^3*l4)^5000000000"],
                         ids=["superscript-two", "arabic-indic-one", "5000-digits",
                              "3000-parentheses", "20000-bit-power", "power-of-a-sum",
                              "past-the-exponent-cap", "far-past-the-exponent-cap"])
def test_malformed_expression_exits_two_naming_the_field(text, tmp_path, capsys):
    # non-ASCII digits, a literal or a power past the int-string limit,
    # nesting past the parser's depth bound, a power of a sum past its
    # degree bound and a power that raises a parameter past the exponent cap
    # are parse errors, never a ValueError, a RecursionError, a long
    # expansion or an exponent that spills into the next parameter's field
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(_bundled_with_metric_entry(text)), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: metric[0][0]: ") and err.count("\n") == 1


# random 4-dim specs over one parameter: random brackets, which mostly fail
# validation, or the bundled family's brackets with random entries
_ENTRY = st.sampled_from(["0", "1", "-1", "2", "-2", "a", "-a", "2*a", "a + 1", "a^2"])
_PAIRS = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
_FAMILY = json.loads(Path(SPEC).read_text(encoding="utf-8"))["brackets"]
# the bundled spec with every product entry 2: 33 structural witnesses
_ALL_TWO_PRODUCT = dict(json.loads(Path(SPEC).read_text(encoding="utf-8")),
                        product=[["2"] * 4 for _ in range(4)])
_PRODUCTS = [[[str(int(abs(i - j) == 2)) for j in range(4)] for i in range(4)]] + [
    [[str(signs[i]) if i == j else "0" for j in range(4)] for i in range(4)]
    for signs in ((1, 1, -1, -1), (1, -1, 1, -1), (1, 1, 1, -1))]


@st.composite
def _random_specs(draw):
    if draw(st.booleans()):
        lam = dict(zip(("l1", "l2", "l3", "l4"), draw(st.lists(_ENTRY, min_size=4,
                                                              max_size=4))))
        brackets = [dict(b, result={k: re.sub(r"l\d", lambda m: "(%s)" % lam[m[0]], v)
                                    for k, v in b["result"].items()})
                    for b in _FAMILY]
    else:
        brackets = [{"left": i, "right": j,
                     "result": draw(st.dictionaries(st.sampled_from("1234"), _ENTRY,
                                                    max_size=2))}
                    for i, j in draw(st.lists(st.sampled_from(_PAIRS), unique=True,
                                              max_size=3))]
    diagonal = st.sampled_from(["1", "2", "a^2 + 1"])
    if draw(st.booleans()):  # diag(x, y, x, y) suits every product below
        x, y = draw(diagonal), draw(diagonal)
        upper = {(i, j): (x, y)[i % 2] if i == j else "0"
                 for i in range(4) for j in range(i, 4)}
    else:
        upper = {(i, j): draw(diagonal if i == j else st.sampled_from(["0", "1", "a"]))
                 for i in range(4) for j in range(i, 4)}
    metric = [[upper[min(i, j), max(i, j)] for j in range(4)] for i in range(4)]
    product = draw(st.sampled_from(_PRODUCTS) | st.lists(st.lists(_ENTRY, min_size=4,
                                                                  max_size=4),
                                                         min_size=4, max_size=4))
    return {"dimension": 4, "parameters": ["a"], "brackets": brackets,
            "metric": metric, "product": product}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["validate", "report", "check"]), _random_specs())
@example("check", _bundled_with_metric_entry("2^20000"))
@example("report", _bundled_with_metric_entry("(l1+l2+l3)^60"))
@example("validate", _bundled_with_metric_entry("(l1+l2+l3+l4)^16*(l1+l2+l3+l4)^16"))
@example("validate", _ALL_TWO_PRODUCT)
def test_random_spec_gets_a_report_or_one_error_line(command, spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), "--format", "json"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.count("\n") == 1
        assert re.match(r"error: \S+: ", err), err
    else:
        report = json.loads(out)
        assert report["exit_status"] == code and err == ""
        assert report["schema"] == cli.SCHEMA_VERSION
        for entry in report["checks"]:
            assert len(entry["witnesses"]) <= 16, entry["id"]
            if entry["status"] != "skip":
                assert (entry["status"] == "fail") == bool(entry["witnesses"]), entry["id"]


def _family_literals(l1):
    """The bundled brackets at (l1, 1, 2, 3), written as literals in a
    parameter-free spec."""
    data = json.loads(Path(SPEC).read_text(encoding="utf-8"))
    lam = {"l1": l1, "l2": "1", "l3": "2", "l4": "3"}
    for bracket in data["brackets"]:
        bracket["result"] = {k: re.sub(r"l\d", lambda m: "(%s)" % lam[m[0]], v)
                             for k, v in bracket["result"].items()}
    data["parameters"] = []
    return data


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("source", ["--lambda", "literals"])
def test_value_past_the_int_string_limit_exits_two(command, source, tmp_path, capsys):
    # tau holds l1^2, so 3000 digits in l1 print as about 6000 in tau; no bound
    # on the inputs covers that
    nines = "9" * 3000
    if source == "literals":
        spec = tmp_path / "frame.json"
        spec.write_text(json.dumps(_family_literals(nines)), encoding="utf-8")
        argv = [command, str(spec)]
        assert run_cli(["validate", str(spec)], capsys)[0] == 0
    else:
        spec, argv = SPEC, [command, SPEC, "--lambda=%s,1,2,3" % nines]
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: " % spec) and err.count("\n") == 1
    assert "int-string limit" in err


@pytest.mark.parametrize("command", ["check", "validate"])
def test_json_path_gets_the_json_report_of_stdout(command, tmp_path, capsys):
    path = tmp_path / "report.json"
    code, text, _ = run_cli([command, SPEC, "--json", str(path)], capsys)
    json_code, out, _ = run_cli([command, SPEC, "--format", "json"], capsys)
    assert (code, json_code) == (0, 0)
    assert not text.startswith("{")
    assert path.read_text(encoding="utf-8") == out and out.endswith("}\n")


def test_unwritable_json_path_exits_two(tmp_path, capsys):
    code, _, err = run_cli(["validate", SPEC, "--json", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_check_computes_the_structure_norm_once(monkeypatch, capsys):
    norms = []
    square_norm = geometry.square_norm

    def counting_norm(t, fa):
        norms.append(t)
        return square_norm(t, fa)

    monkeypatch.setattr(geometry, "square_norm", counting_norm)
    code, _, _ = run_cli(["check", SPEC, "--lambda=1,2,3,4"], capsys)
    assert code == 0
    assert len(norms) == 1


def test_check_runs_the_p_tensor_test_once(monkeypatch, capsys):
    # λ3 = λ1 and λ4 = λ2: parallel torsion, so three checks ask whether R' is
    # a P-tensor
    calls = []
    p_tensor_defects = theorems.p_tensor_defects

    def counting_defects(r, fa):
        calls.append(r)
        return p_tensor_defects(r, fa)

    monkeypatch.setattr(theorems, "p_tensor_defects", counting_defects)
    code, out, _ = run_cli(["check", SPEC, "--lambda=1,2,1,2", "--format", "json"],
                           capsys)
    assert code == 0
    details = {c["id"]: c["details"] for c in json.loads(out)["checks"]}
    assert details["parallel-torsion"]["p_tensor"] == "true"
    assert details["family-parameter-equivalence"]["p_tensor"] == "true"
    assert len(calls) == 1


def test_passing_check_pulls_nothing_back_to_the_user_basis(monkeypatch, capsys,
                                                           tmp_path):
    # witnesses of a nonzero tensor are the only pull-back a check needs
    path = tmp_path / "six.json"
    save_spec(six_dim_frame(), path)
    calls = []
    to_user = frames.RebasedFrame.to_user

    def counting_to_user(self, t):
        calls.append(t)
        return to_user(self, t)

    monkeypatch.setattr(frames.RebasedFrame, "to_user", counting_to_user)
    code, out, _ = run_cli(["check", str(path), "--format", "json"], capsys)
    assert code == 0
    assert all(c["status"] == "pass" for c in json.loads(out)["checks"])
    assert calls == []


def _tau_reads(monkeypatch):
    """Patch the bindings of curvature in cli and theorems, the modules that
    call it, and of scalar_curvature in cli: each call appends (name,
    connection, result)."""
    reads = []

    def counting(name, fn):
        def read(conn):
            result = fn(conn)
            reads.append((name, conn, result))
            return result
        return read

    for module in (cli, theorems):
        monkeypatch.setattr(module, "curvature", counting("curvature", geometry.curvature))
    monkeypatch.setattr(cli, "scalar_curvature",
                        counting("scalar_curvature", geometry.scalar_curvature))
    return reads


def _tau_commands(tmp_path):
    path = tmp_path / "single_bracket.json"
    save_spec(single_bracket_frame(), path)
    return {"W3": ([SPEC, "--lambda=1,2,3,4"], 2), "W0": ([SPEC, "--lambda=0,0,0,0"], 2),
            "non-W3": ([str(path)], 1)}


@pytest.mark.parametrize("frame", ["W3", "W0", "non-W3"])
def test_json_report_reads_tau_from_the_coefficients(frame, monkeypatch, capsys,
                                                     tmp_path):
    # tau and tau' (when the frame has a skew-torsion connection) without a
    # Riemann tensor; the text report builds only R', for its P-tensor line
    argv, connections = _tau_commands(tmp_path)[frame]
    reads = _tau_reads(monkeypatch)
    code, out, _ = run_cli(["report"] + argv + ["--format", "json"], capsys)
    assert code == 0 and "tau" in json.loads(out)["scalars"]
    assert [name for name, _, _ in reads] == ["scalar_curvature"] * connections
    del reads[:]
    assert run_cli(["report"] + argv, capsys)[0] == 0
    riemann = {id(conn) for name, conn, _ in reads if name == "curvature"}
    assert len(riemann) == connections - 1


@pytest.mark.parametrize("command, frame", [("check", "W3"), ("check", "W0"),
                                            ("check", "non-W3"), ("example", "W3"),
                                            ("example", None)])
def test_check_and_example_read_tau_from_the_riemann_tensor_they_build(
        command, frame, monkeypatch, capsys, tmp_path):
    # one Riemann tensor per connection: every later read is a memo hit,
    # the same result, and no tau comes from the coefficients as well
    argv = _tau_commands(tmp_path)[frame][0] if frame else []
    if command == "example":
        argv = argv[1:]
    reads = _tau_reads(monkeypatch)
    assert run_cli([command] + argv, capsys)[0] == 0
    assert reads and all(name == "curvature" for name, _, _ in reads)
    results = {}
    for _, conn, result in reads:
        assert results.setdefault(id(conn), result) is result
    assert len(results) == (1 if frame == "non-W3" else 2)


@pytest.mark.parametrize("suite", ["all", "geometry", "rpt", "theorems"])
@pytest.mark.parametrize("frame", ["W3", "W0", "non-W3"])
def test_check_reads_tau_off_a_riemann_tensor_only_when_its_suite_built_one(
        suite, frame, monkeypatch, capsys, tmp_path):
    # the suite's reads come first, then one tau read per connection: off
    # the Riemann tensor when the suite curved that connection, else from
    # the coefficients, and the scalars are those of the JSON report
    argv, connections = _tau_commands(tmp_path)[frame]
    expected = json.loads(run_cli(["report"] + argv + ["--format", "json"], capsys)[1])
    reads = _tau_reads(monkeypatch)
    code, out, _ = run_cli(["check"] + argv + ["--suite", suite, "--format", "json"],
                           capsys)
    assert code == 0
    assert json.loads(out)["scalars"] == expected["scalars"]
    checks, taus = reads[:-connections], reads[-connections:]
    assert all(name == "curvature" for name, _, _ in checks)
    curved = {id(conn) for _, conn, _ in checks}
    assert [name for name, _, _ in taus] == [
        "curvature" if id(conn) in curved else "scalar_curvature" for _, conn, _ in taus]


def test_json_report_builds_no_text_sections(monkeypatch, capsys):
    # the projection norms are printed only in the text rendering
    calls = []
    torsion_projections = cli.torsion_projections

    def counting_projections(t, fa):
        calls.append(t)
        return torsion_projections(t, fa)

    monkeypatch.setattr(cli, "torsion_projections", counting_projections)
    code, out, _ = run_cli(["report", SPEC, "--format", "json"], capsys)
    assert code == 0 and "scalars" in json.loads(out)
    assert calls == []
    assert run_cli(["report", SPEC], capsys)[0] == 0
    assert len(calls) == 1


def test_json_report_builds_no_companion_connection_nor_structure_identities(
        monkeypatch, capsys):
    # both belong to the check suites only
    calls = []
    for name in ("companion_shifts", "structure_defects"):
        def counting(*args, _name=name, _original=getattr(theorems, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(theorems, name, counting)
    code, out, _ = run_cli(["report", SPEC, "--format", "json"], capsys)
    assert code == 0 and "scalars" in json.loads(out)
    assert calls == []
    assert run_cli(["check", SPEC, "--format", "json"], capsys)[0] == 0
    assert sorted(calls) == ["companion_shifts", "structure_defects"]


# ---------------------------------------------------------------------------
# golden comparison through the shared witness collector


def _copied_golden(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(bundled_spec_path().parent / "golden", golden)
    return golden


def _mutated_golden(tmp_path, name, count):
    """Copy of the golden tables with `count` entries of one table shifted
    by 1; returns the directory and the changed 1-based indices."""
    golden = _copied_golden(tmp_path)
    table = golden / ("%s.json" % name)
    data = json.loads(table.read_text(encoding="utf-8"))
    keys = list(data["entries"])[:count]
    for key in keys:
        data["entries"][key] = "%s + 1" % data["entries"][key]
    table.write_text(json.dumps(data), encoding="utf-8")
    return golden, [[int(k) for k in key.split(",")] for key in keys]


# a wrong rank per table: not an int, a bool, an int other than the tensor rank
_BAD_RANKS = {"torsion": "x", "connection": True, "curvature": 3}


@pytest.mark.parametrize("name, field", [("curvature", "entries"),
                                         ("scalars", "invalid JSON"),
                                         ("scalars", "entries[foo]"),
                                         ("curvature", "symmetry"),
                                         ("torsion", "entries[1,2,9]"),
                                         ("torsion", "entries[1,2]"),
                                         ("torsion", "entries[4,1,3]"),
                                         ("torsion", "entries[1,1,3]"),
                                         ("torsion", "rank"),
                                         ("connection", "rank"),
                                         ("curvature", "rank")])
def test_malformed_golden_table_exits_two(name, field, tmp_path, capsys):
    golden = _copied_golden(tmp_path)
    table = golden / ("%s.json" % name)
    data = json.loads(table.read_text(encoding="utf-8"))
    if field == "entries":
        del data["entries"]
    elif field.startswith("entries["):  # a name or index the report never computes,
        # (4,1,3), which the skew symmetry ties to the listed (1,3,4), or
        # (1,1,3), which the skew symmetry makes zero
        data["entries"][field[len("entries["):-1]] = "1"
    elif field == "symmetry":
        data["symmetry"] = "bogus"
    elif field == "rank":
        data["rank"] = _BAD_RANKS[name]
    table.write_text("{" if field == "invalid JSON" else json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(["example", "--lambda=1,2,3,4", "--golden", str(golden)],
                             capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: %s" % (table, field))


@pytest.mark.parametrize("key", ["01,3,4", "١,3,4", "+1,3,4", " 1,3,4", "1,3,5",
                                 "1,3," + "4" * 5000], ids=lambda k: repr(k)[:12])
def test_golden_index_must_be_a_canonical_decimal(key, tmp_path, capsys):
    # the same value as the listed 1,3,4, so only the spelling is wrong; the
    # 5,000-digit index is past the int-string limit
    golden = _copied_golden(tmp_path)
    table = golden / "torsion.json"
    data = json.loads(table.read_text(encoding="utf-8"))
    data["entries"][key] = data["entries"]["1,3,4"]
    table.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(["example", "--lambda=1,2,3,4", "--golden", str(golden)],
                             capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: entries[%s]: " % (table, key))


@pytest.mark.parametrize("lam", [["--lambda=1,2,3,4"], []], ids=["lambda", "symbolic"])
def test_golden_table_over_other_parameter_names_exits_two(lam, tmp_path, capsys):
    # the same table over a, b, c, d: the tables must use the family's names
    golden = _copied_golden(tmp_path)
    table = golden / "curvature.json"
    data = json.loads(table.read_text(encoding="utf-8"))
    names = dict(zip(("l1", "l2", "l3", "l4"), "abcd"))
    data["parameters"] = [names[p] for p in data["parameters"]]
    data["entries"] = {k: re.sub(r"l\d", lambda m: names[m[0]], v)
                       for k, v in data["entries"].items()}
    table.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(["example", "--golden", str(golden)] + lam, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: parameters: " % table)


def _golden_failures(golden, capsys):
    code, out, _ = run_cli(["example", "--lambda=1,2,3,4", "--golden", str(golden),
                            "--format", "json"], capsys)
    assert code == 1
    return {c["id"]: c for c in json.loads(out)["checks"] if c["status"] == "fail"}


def test_one_flipped_connection_entry_fails_only_that_comparison(tmp_path, capsys):
    golden, changed = _mutated_golden(tmp_path, "connection", 1)
    failures = _golden_failures(golden, capsys)
    assert list(failures) == ["golden-connection"]
    assert [w["index"] for w in failures["golden-connection"]["witnesses"]] == changed
    assert failures["golden-connection"]["reason"] is None


@pytest.mark.parametrize("name, count, dropped", [("curvature", 6, 8),
                                                  ("connection", 20, 4)])
def test_witnesses_beyond_the_cap_are_counted(name, count, dropped, tmp_path, capsys):
    # a curvature entry stands for four components through its pair symmetry
    golden, _ = _mutated_golden(tmp_path, name, count)
    failures = _golden_failures(golden, capsys)
    assert list(failures) == ["golden-%s" % name]
    entry = failures["golden-%s" % name]
    assert len(entry["witnesses"]) == 16
    assert entry["reason"] == "%d further mismatches suppressed" % dropped
