"""Command-line contract: byte-identical reports, exit codes and JSON shape."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from rptgeo import (FrameAlgebra, Scalar, build_example, cli, frames, geometry,
                    save_spec, theorems)
from rptgeo.example import bundled_spec_path

from helpers import single_bracket_frame, six_dim_frame

FIXTURES = Path(__file__).parent / "fixtures"
SPEC = str(bundled_spec_path())


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _fixture_argv(name, tmp_path):
    """Command line whose stdout is frozen in tests/fixtures/<name>."""
    if name == "check_single_bracket.json":
        path = tmp_path / "single_bracket.json"
        save_spec(single_bracket_frame(), path)
        return ["check", str(path), "--format", "json"]
    return {
        "example_lambda_1234.json": ["example", "--lambda=1,2,3,4", "--format", "json"],
        "check_bundled.json": ["check", SPEC, "--format", "json"],
        "check_family_w0.json": ["check", SPEC, "--lambda=0,0,0,0", "--format", "json"],
        "check_family_w0.txt": ["check", SPEC, "--lambda=0,0,0,0"],
        "report_bundled.txt": ["report", SPEC],
        "report_bundled.json": ["report", SPEC, "--format", "json"],
    }[name]


# report carries validate's notes in "reason", check carries the same notes
# in "details"; the text fixtures freeze the skip reasons and details lines
@pytest.mark.parametrize("name", ["example_lambda_1234.json", "check_bundled.json",
                                  "check_single_bracket.json", "check_family_w0.json",
                                  "check_family_w0.txt", "report_bundled.txt",
                                  "report_bundled.json"])
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


@pytest.mark.parametrize("command", ["validate", "report", "check"])
def test_bundled_spec_exits_zero_with_the_documented_keys(command, capsys):
    code, out, _ = run_cli([command, SPEC, "--format", "json"], capsys)
    assert code == 0
    assert sorted(json.loads(out)) == ["checks", "class", "exit_status",
                                       "input_digest", "scalars", "schema"]


def test_usage_and_input_errors_exit_two(tmp_path, capsys):
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text('{"dimension": 3}', encoding="utf-8")
    for argv in (["check", SPEC, "--lambda=1,x,3,4"],
                 ["check", SPEC, "--lambda=1,2"],
                 ["example", "--lambda=1,2,3"],
                 ["report", str(tmp_path / "missing.json")],
                 ["check", str(bad_schema)],
                 ["example", "--symbolic"]):
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


@pytest.mark.parametrize("text", ["\u00b2", "\u0661", "1" * 5000,
                                  "(" * 3000 + "1" + ")" * 3000],
                         ids=["superscript-two", "arabic-indic-one", "5000-digits",
                              "3000-parentheses"])
def test_malformed_expression_exits_two_naming_the_field(text, tmp_path, capsys):
    # non-ASCII digits, a literal past the int-string limit and nesting past
    # the parser's depth bound are parse errors, never a ValueError or a
    # RecursionError
    data = json.loads(Path(SPEC).read_text(encoding="utf-8"))
    data["metric"][0][0] = text
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: metric[0][0]: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("key", ["01,3,4", "١,3,4"])
def test_golden_index_must_be_a_canonical_decimal(key, tmp_path, capsys):
    # the same value as the listed 1,3,4, so only the spelling is wrong
    golden = _copied_golden(tmp_path)
    table = golden / "torsion.json"
    data = json.loads(table.read_text(encoding="utf-8"))
    data["entries"][key] = data["entries"]["1,3,4"]
    table.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(["example", "--lambda=1,2,3,4", "--golden", str(golden)],
                             capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: entries[%s]: " % (table, key))


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
