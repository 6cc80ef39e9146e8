"""Frame validation, the Killing condition, and spec-file round trips."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from rptgeo import (FrameAlgebra, Scalar, SchemaError, build_example, bundled_spec_path,
                    example, frames, golden_tables, killing_check, load_spec, mat_det,
                    mat_identity, mat_mul, mat_transpose, save_spec, spec_digest, validate)
from rptgeo.frames import (Witness, adapted_frame, bracket_tensor, check_result,
                           frame_from_dict, frame_to_dict, tensor_witnesses)
from rptgeo.tensors import Tensor, _as_poly, coefficient_tensor

from helpers import (abelian_plane, conjugate, jacobi_oracle, jacobi_residual_oracle,
                     killing_oracle, random_frames, random_unimodular, sheared_family_frame,
                     single_bracket_frame, swap_product_matrix, symbolic_metric_frame)

FIXTURES = Path(__file__).parent / "fixtures"


def test_example_validates_symbolically():
    report = validate(build_example())
    assert report.passed and not report.witnesses
    assert report.reason == "positivity unverified (parametric)"


def test_abelian_block_swap_validates():
    zero = Scalar.zero(())
    c = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    fa = FrameAlgebra(4, (), c, mat_identity(4, ()), swap_product_matrix(4, ()))
    report = validate(fa)
    assert report.passed
    assert report.reason is None  # numeric metric, positivity actually checked


def test_jacobi_violation_witnessed():
    fa = build_example()
    l3 = Scalar.parameter(fa.params, "l3")
    broken = [[[s for s in cell] for cell in row] for row in fa.c]
    broken[2][3][2] = l3 + 1  # [X3,X4] third component
    broken[3][2][2] = -(l3 + 1)
    bad = FrameAlgebra(4, fa.params, broken, fa.g, fa.p)
    report = validate(bad)
    assert not report.passed
    jacobi_witnesses = [w for w in report.witnesses if w.label == "jacobi"]
    assert jacobi_witnesses
    # oracle: direct triple-loop evaluation flags the same violation
    assert jacobi_oracle(bad)
    assert not jacobi_oracle(fa)


def _broken_half_integral_family(params: tuple) -> FrameAlgebra:
    """The family at a half-integral lambda with [X3,X4] given the third
    component 1/2, which breaks Jacobi; every entry a constant of params."""
    fa = build_example((Fraction(1, 2), Fraction(3, 2), 1, Fraction(5, 2)))

    def lift(v):
        return Scalar.constant(params, v)

    c = [[[lift(s.value) for s in cell] for cell in row] for row in fa.c]
    c[2][3][2], c[3][2][2] = lift(Fraction(1, 2)), lift(Fraction(-1, 2))
    return FrameAlgebra(4, params, c, [[lift(s.value) for s in row] for row in fa.g],
                        [[lift(s.value) for s in row] for row in fa.p])


def _jacobi_witnesses(fa: FrameAlgebra) -> list:
    return [(w.index, str(w.expected), str(w.actual))
            for w in validate(fa).witnesses if w.label == "jacobi"]


def test_jacobi_on_cleared_ints_matches_the_scalar_loop(monkeypatch):
    fa = _broken_half_integral_family(())
    on_ints = _jacobi_witnesses(fa)
    assert on_ints and any("/" in actual for _, _, actual in on_ints)
    assert on_ints == [((i + 1, j + 1, m + 1, r + 1), "0", str(x))
                       for i, j, m in itertools.combinations(range(4), 3)
                       for r, x in enumerate(jacobi_residual_oracle(fa, i, j, m)) if x]
    lifted = _broken_half_integral_family(("t",))
    # constant entries take the int loop in any context
    assert coefficient_tensor(lifted.c).ints is not None
    assert _jacobi_witnesses(lifted) == on_ints
    # with every int form read as constant polynomials, the lifted frame
    # takes the polynomial loop, as every op on the way does
    monkeypatch.setattr(Tensor, "_values", lambda self: _as_poly(self._nums, self._den))
    on_polys = _jacobi_witnesses(_broken_half_integral_family(("t",)))
    assert on_polys == on_ints


def test_structural_axiom_witnesses():
    fa = build_example((1, 2, 3, 4))
    p_bad = [[s for s in row] for row in fa.p]
    p_bad[0][2] = Scalar.constant((), 2)
    report = validate(FrameAlgebra(4, (), fa.c, fa.g, p_bad))
    labels = {w.label for w in report.witnesses}
    assert "product-square-identity" in labels


def _matrix_axioms_frame() -> FrameAlgebra:
    """A 2-dim frame in the context ("t",) that fails every matrix axiom and
    bracket antisymmetry: c^k_21 = 0 next to c^1_12 = 1, c^2_12 = 1/2 (a spec
    file cannot say this), g = [[2, 1/2], [0, 3]] and P = [[1, t], [0, 1]]."""
    params = ("t",)

    def k(v):
        return Scalar.constant(params, v)

    c = [[[k(0), k(0)], [k(1), k(Fraction(1, 2))]], [[k(0), k(0)], [k(0), k(0)]]]
    g = [[k(2), k(Fraction(1, 2))], [k(0), k(3)]]
    p = [[k(1), Scalar.parameter(params, "t")], [k(0), k(1)]]
    return FrameAlgebra(2, params, c, g, p)


def test_validate_matrix_axioms_match_frozen_fixture():
    # freezes the witnesses of the checks that read g, P and the brackets
    # as given: their order, indices, values and labels
    report = validate(_matrix_axioms_frame())
    assert {w.label for w in report.witnesses} == {
        "bracket-antisymmetry", "metric-symmetry", "product-square-identity",
        "metric-product-compatibility", "product-traceless"}
    out = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    assert out == (FIXTURES / "validate_matrix_axioms.json").read_text(encoding="utf-8")


def test_indefinite_metric_flagged():
    fa = build_example((0, 0, 0, 0))
    g_bad = [[s for s in row] for row in fa.g]
    g_bad[1][1] = Scalar.constant((), -1)
    report = validate(FrameAlgebra(4, (), fa.c, g_bad, fa.p))
    assert any(w.label == "metric-positive-definite" for w in report.witnesses)


def _leading_block(m, k):
    return [row[:k] for row in m[:k]]


def test_metric_minors_are_the_leading_block_determinants():
    for fa in random_frames():
        minors = fa.metric_minors
        assert minors == [mat_det(_leading_block(fa.g, k))
                          for k in range(1, fa.dim + 1)]
        assert fa.metric_det == minors[-1]


@pytest.mark.parametrize("rows, bad", [
    # one swap: minors 0, -1, -1, -1
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [1, 2, 3, 4]),
    # two swaps leave det g = 1 and every pivot value 1; minors 0, -1, 0, 1
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], [1, 2, 3]),
    # no swap, a singular metric: minors 1, 0, 0, 0
    ([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [2, 3, 4]),
])
def test_metric_with_a_zero_leading_minor_is_witnessed(rows, bad):
    g = [[Scalar.constant((), x) for x in row] for row in rows]
    fa = FrameAlgebra(4, (), single_bracket_frame().c, g, mat_identity(4, ()))
    witnesses = [w for w in validate(fa).witnesses
                 if w.label == "metric-positive-definite"]
    assert [w.index for w in witnesses] == [(k,) for k in bad]
    assert [w.actual for w in witnesses] == [mat_det(_leading_block(g, k))
                                            for k in bad]


def test_malformed_shapes_raise():
    fa = build_example()
    with pytest.raises(ValueError):
        FrameAlgebra(3, fa.params, fa.c, fa.g, fa.p)
    with pytest.raises(ValueError):
        FrameAlgebra(4, fa.params, fa.c, fa.g[:3], fa.p)
    # each tensor must be over the frame's parameters
    constant = build_example((1, 2, 3, 5))
    with pytest.raises(ValueError, match="structure constants"):
        FrameAlgebra(4, ("a",), constant.c, constant.g, constant.p)
    with pytest.raises(ValueError, match="metric"):
        FrameAlgebra(4, fa.params, fa.c, constant.g, fa.p)
    with pytest.raises(ValueError, match="product"):
        FrameAlgebra(4, fa.params, fa.c, fa.g, constant.p)
    # a Tensor argument must have the frame's variance, dimension and parameters
    plane = abelian_plane(fa.params)
    for tensors, name in [((fa.metric, fa.metric, fa.product), "structure constants"),
                          ((fa.brackets, fa.product, fa.product), "metric"),
                          ((fa.brackets, fa.metric, fa.metric), "product"),
                          ((plane.brackets, fa.metric, fa.product), "structure constants"),
                          ((fa.brackets, plane.metric, fa.product), "metric"),
                          ((fa.brackets, fa.metric, plane.product), "product"),
                          ((constant.brackets, fa.metric, fa.product), "structure constants"),
                          ((fa.brackets, constant.metric, fa.product), "metric"),
                          ((fa.brackets, fa.metric, constant.product), "product")]:
        with pytest.raises(ValueError, match="^%s: " % name):
            FrameAlgebra(4, fa.params, *tensors)
    one = Scalar.one(())
    for upper in ({(1, 1): {0: one}}, {(2, 1): {0: one}}, {(0, 4): {0: one}},
                  {(-1, 2): {0: one}}, {(0, 1): {4: one}}, {(0, 1): {-1: one}}):
        with pytest.raises(ValueError, match="out of range or i >= j"):
            bracket_tensor(4, (), upper)


def test_associated_metric_symmetric_on_random_frames():
    # P is g-orthogonal, so g(x, Py) is symmetric
    for fa in random_frames(6):
        gp = mat_mul(fa.g, fa.p)
        assert mat_transpose(gp) == gp


def test_check_result_decides_caps_and_notes():
    fa = build_example((1, 2, 3, 4))
    c = coefficient_tensor(fa.c)
    flags = [Witness((k,), Scalar.zero(()), Scalar.one(()), "flag") for k in range(10)]
    result = check_result("x", fa, [(c, "bracket")], flags, {"k": "v"}, ["note"])
    # the defects' witnesses come first, then the given ones
    expected = tensor_witnesses(fa, c, "bracket") + flags
    assert len(expected) > 16
    assert result.status == "fail" and result.witnesses == expected[:16]
    assert result.reason == "note; %d further mismatches suppressed" % (len(expected) - 16)
    assert result.details == {"k": "v"}
    zero = Tensor.zeros(4, "ddd", ())
    passing = check_result("y", fa, [(zero, "zero")], notes=["note"])
    assert (passing.status, passing.witnesses, passing.reason, passing.details) == \
        ("pass", [], "note", {})
    assert check_result("z", None, witnesses=flags[:1]).as_dict() == {
        "id": "z", "status": "fail", "witnesses": [flags[0].as_dict()],
        "reason": None, "details": {}}


def _assert_views_read_the_tensors(fa):
    """fa.c, fa.g and fa.p are built once and read brackets, metric and
    product entry for entry, P^i_j at p[i][j]."""
    assert fa.c is fa.c and fa.g is fa.g and fa.p is fa.p
    assert (fa.brackets.variance, fa.metric.variance, fa.product.variance) == ("ddu", "dd", "ud")
    cells = itertools.product(range(fa.dim), repeat=3)
    assert all(fa.c[i][j][k] == fa.brackets[i, j, k] for i, j, k in cells)
    cells = itertools.product(range(fa.dim), repeat=2)
    assert all(fa.g[i][j] == fa.metric[i, j] and fa.p[i][j] == fa.product[i, j]
               for i, j in cells)


def test_the_nested_view_equals_the_constructor_input():
    zero, one = Scalar.zero(()), Scalar.one(())
    nested = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    nested[0][1][2], nested[1][0][2] = one, -one
    g = [[Scalar.constant((), i + 1) if i == j else zero for j in range(4)] for i in range(4)]
    p = swap_product_matrix(4, ())
    p[0][1] = Scalar.constant((), Fraction(3, 2))  # not symmetric: P^1_2 only
    fa = FrameAlgebra(4, (), nested, g, p)
    assert fa.c == nested and fa.g == g and fa.p == p
    assert fa.brackets[1, 0, 2] == -one and fa.metric[3, 3] == 4
    assert fa.product[0, 1] == Fraction(3, 2) and fa.product[1, 0].is_zero
    _assert_views_read_the_tensors(fa)
    family = build_example()
    l1, l2, l3, l4 = (Scalar.parameter(family.params, name) for name in family.params)
    zero = Scalar.zero(family.params)
    table = {(0, 1): [l1, l2, zero, zero], (0, 2): [zero, l3, zero, -l1],
             (0, 3): [-l3, zero, zero, -l2], (1, 2): [zero, l4, l1, zero],
             (1, 3): [-l4, zero, l2, zero], (2, 3): [zero, zero, l3, l4]}
    nested = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    for (i, j), cell in table.items():
        nested[i][j], nested[j][i] = cell, [-x for x in cell]
    assert family.c == nested
    assert family.g == mat_identity(4, family.params)
    assert family.p == swap_product_matrix(4, family.params)
    _assert_views_read_the_tensors(family)


@pytest.mark.parametrize("frame", ["family", "conj8", "sheared"])
def test_the_nested_view_of_an_adapted_frame_reads_its_brackets(frame):
    fa = {"family": build_example, "conj8": lambda: random_frames()[-1],
          "sheared": sheared_family_frame}[frame]()
    af = adapted_frame(fa)
    _assert_views_read_the_tensors(af)
    # a frame rebuilt from the nested view, as the perfbench corpus does
    rebuilt = FrameAlgebra(af.dim, af.params,
                           [[list(cell) for cell in row] for row in af.c], af.g, af.p)
    assert rebuilt == af


def test_killing_example_and_abelian():
    assert killing_check(build_example()).passed
    zero = Scalar.zero(())
    c = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    fa = FrameAlgebra(4, (), c, mat_identity(4, ()), swap_product_matrix(4, ()))
    assert killing_check(fa).passed


def test_killing_failure_witness():
    fa = single_bracket_frame()
    report = killing_check(fa)
    assert not report.passed
    assert any(w.index == (1, 2, 1) for w in report.witnesses)
    assert (0, 1, 0) in killing_oracle(fa)


def test_killing_witnesses_match_oracle():
    base = single_bracket_frame()
    conj = conjugate(base, random_unimodular(random.Random(3), 4, ()))
    assert validate(conj).passed
    assert conj.p != swap_product_matrix(4, ())
    for fa in (base, conj):
        report = killing_check(fa)
        oracle = [tuple(k + 1 for k in idx) for idx in killing_oracle(fa)]
        assert report.witnesses
        # the entry keeps the first 16 and counts the rest
        assert [w.index for w in report.witnesses] == oracle[:16]
        dropped = len(oracle) - 16
        assert report.reason == ("%d further mismatches suppressed" % dropped
                                 if dropped > 0 else None)
    assert len(killing_oracle(conj)) > 16


def test_killing_preserved_by_conjugation():
    import random
    fa = conjugate(build_example((1, -2, 3, 1)),
                   random_unimodular(random.Random(7), 4, ()))
    assert killing_check(fa).passed


def test_bundled_spec_equals_builder():
    fa = load_spec(bundled_spec_path())
    assert fa == build_example()


def test_round_trip(tmp_path):
    fa = build_example()
    path = tmp_path / "example.json"
    save_spec(fa, path)
    again = load_spec(path)
    assert again == fa
    assert spec_digest(again) == spec_digest(fa)
    save_spec(again, tmp_path / "twice.json")
    assert (tmp_path / "twice.json").read_text() == path.read_text()
    # a frame enters as its three tensors, and its spec reads back to the same
    # frame; a spec states no rational function, as symbolic_metric_frame has,
    # so save_spec refuses that frame with the loader's error and writes nothing
    built = random_frames() + [sheared_family_frame()]
    for fa in built:
        assert FrameAlgebra(fa.dim, fa.params, fa.brackets, fa.metric, fa.product) == fa
    refused = tmp_path / "rational.json"
    with pytest.raises(SchemaError, match=r"^brackets\[\d+\]\.result\[\d\]: division by a "
                                          "non-constant expression"):
        save_spec(built[0], refused)
    assert not refused.exists()
    for k, fa in enumerate(built[1:]):
        save_spec(fa, tmp_path / ("built%d.json" % k))
        again = load_spec(tmp_path / ("built%d.json" % k))
        assert again == fa and spec_digest(again) == spec_digest(fa)


def test_empty_brackets_is_abelian():
    fa = frame_from_dict({
        "dimension": 2,
        "parameters": [],
        "brackets": [],
        "metric": [["1", "0"], ["0", "1"]],
        "product": [["0", "1"], ["1", "0"]],
    })
    assert all(s.is_zero for row in fa.c for cell in row for s in cell)
    assert validate(fa).passed


def test_schema_error_names_field(tmp_path):
    data = json.loads(bundled_spec_path().read_text())
    data["metric"][2] = ["1", "0", "0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=r"metric\[2\]"):
        load_spec(path)


def test_schema_error_bad_expression(tmp_path):
    data = json.loads(bundled_spec_path().read_text())
    data["brackets"][0]["result"]["1"] = "l9 +"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=r"brackets\[0\].result\[1\]"):
        load_spec(path)


def test_schema_rejects_left_ge_right():
    data = frame_to_dict(build_example())
    data["brackets"][0]["left"], data["brackets"][0]["right"] = 2, 1
    with pytest.raises(SchemaError, match="left < right"):
        frame_from_dict(data)


# "\u0661" is ARABIC-INDIC DIGIT ONE, which str.isdigit and int accept
_NOT_AN_INDEX = ["01", "+1", " 1", "1 ", "\u0661", "", "0", "5", "1" * 5000]


@pytest.mark.parametrize("key", _NOT_AN_INDEX, ids=lambda k: repr(k)[:12])
def test_a_bracket_key_must_be_a_canonical_index(key):
    # 5 is top + 1; the 5,000-digit key is past the int-string limit, where
    # int() would raise ValueError, so the length is read first
    data = frame_to_dict(build_example())
    data["brackets"][0]["result"][key] = "1"
    with pytest.raises(SchemaError) as err:
        frame_from_dict(data)
    assert str(err.value) == "brackets[0].result[%s]: expected a component index in 1..4" % key


def test_is_index_reads_exactly_the_decimals_of_one_to_top():
    texts = _NOT_AN_INDEX + [str(k) for k in range(-2, 120)] + ["1.0", "1e1", "\u00b9"]
    for top in (1, 4, 9, 10, 99, 100):
        assert {t for t in texts if frames._is_index(t, top)} == \
            {str(k) for k in range(1, top + 1)}


def test_schema_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_spec(path)


def test_substitute_produces_constant_frame():
    fa = build_example().substitute({"l1": 1, "l2": 2, "l3": 1, "l4": 2})
    assert fa.params == ()
    assert fa == build_example((1, 2, 1, 2))
    _assert_views_read_the_tensors(fa)


def _substituted_entrywise(fa: FrameAlgebra, values) -> FrameAlgebra:
    """fa at the values, built entry by entry through Scalar.substitute."""
    def at(x):
        return Scalar.constant((), x.substitute(values))

    return FrameAlgebra(fa.dim, (), [[[at(x) for x in cell] for cell in row] for row in fa.c],
                        [[at(x) for x in row] for row in fa.g],
                        [[at(x) for x in row] for row in fa.p])


@pytest.mark.parametrize("build", [symbolic_metric_frame, sheared_family_frame])
def test_substitute_equals_the_entrywise_evaluation(build):
    # symbolic_metric_frame: parametric g, P over a + 1; sheared: parametric P
    fa = build()
    assert fa.product.ints is None
    values = dict(zip(fa.params, (Fraction(1, 2), 1, Fraction(-3, 2), Fraction(5, 2),
                                  Fraction(2, 3))))
    sub = fa.substitute(values)
    assert type(sub) is FrameAlgebra and sub.params == ()
    assert sub == _substituted_entrywise(fa, values)
    _assert_views_read_the_tensors(sub)


def test_substitute_at_a_pole_of_the_product_raises():
    fa = symbolic_metric_frame()
    values = dict(zip(fa.params, (1, 2, 3, 5, -1)))  # a = -1: P has entries over a + 1
    message = "denominator vanishes at the given values"
    with pytest.raises(ZeroDivisionError, match=message):
        [x.substitute(values) for row in fa.p for x in row]
    with pytest.raises(ZeroDivisionError, match=message):
        fa.substitute(values)


# ---------------------------------------------------------------------------
# one parse per distinct entry text


def _spec_texts(data: dict) -> list:
    """Every entry text of a spec dict, in the order the loader reads them."""
    return ([text for entry in data["brackets"] for text in entry["result"].values()]
            + [text for key in ("metric", "product") for row in data[key] for text in row])


def _count_parses(monkeypatch) -> list:
    """The texts frames.parse_expression is called on from now on."""
    calls, real = [], frames.parse_expression

    def counted(text, params):
        calls.append(text)
        return real(text, params)

    monkeypatch.setattr(frames, "parse_expression", counted)
    return calls


def _unshared(monkeypatch):
    """Make every _parse_entry call, in specs and golden tables, parse its
    text afresh, as if each entry were its own load."""
    real = frames._parse_entry
    for module in (frames, example):
        monkeypatch.setattr(module, "_parse_entry",
                            lambda text, params, path, parsed: real(text, params, path, {}))


_SPECS = [json.loads(bundled_spec_path().read_text())] + [
    frame_to_dict(fa) for fa in random_frames(6)[2:]]


@pytest.mark.parametrize("data", _SPECS, ids=lambda d: "dim%d-%dparams" % (
    d["dimension"], len(d["parameters"])))
def test_a_spec_parses_each_distinct_text_once_and_loads_as_unshared(data, monkeypatch):
    texts = _spec_texts(data)
    assert len(set(texts)) < len(texts)  # the spec repeats texts
    calls = _count_parses(monkeypatch)
    shared = frame_from_dict(data)
    assert sorted(calls) == sorted(set(texts))
    with monkeypatch.context() as m:
        _unshared(m)
        unshared = frame_from_dict(data)
    assert len(calls) == len(set(texts)) + len(texts)
    assert shared == unshared and spec_digest(shared) == spec_digest(unshared)
    # equal texts share one Scalar within the load
    by_text = {}
    for text, value in zip([text for key in ("metric", "product") for row in data[key]
                            for text in row],
                           [x for matrix in (shared.g, shared.p) for row in matrix for x in row]):
        assert by_text.setdefault(text, value) is value


def test_a_repeated_malformed_text_fails_at_its_first_occurrence():
    data = json.loads(bundled_spec_path().read_text())
    data["metric"][1][2] = data["product"][0][1] = data["metric"][3][0] = "1 +"
    with pytest.raises(SchemaError) as shared:
        frame_from_dict(data)
    assert str(shared.value).startswith("metric[1][2]: ")
    data["product"][0][1] = data["metric"][3][0] = "0"
    with pytest.raises(SchemaError) as alone:
        frame_from_dict(data)
    assert str(shared.value) == str(alone.value)


@pytest.mark.parametrize("where, entry", [("metric", []), ("product", ["1"]),
                                          ("brackets", {"1": 2}), ("brackets", ["l1"])])
def test_a_non_string_entry_is_a_schema_error(where, entry):
    data = json.loads(bundled_spec_path().read_text())
    if where == "brackets":
        data["brackets"][0]["result"]["2"] = entry
        path = r"brackets\[0\]\.result\[2\]"
    else:
        data[where][2][3] = entry
        path = r"%s\[2\]\[3\]" % where
    with pytest.raises(SchemaError, match=path + ": expected an expression string$"):
        frame_from_dict(data)


def test_golden_tables_parse_each_distinct_text_once_per_file(monkeypatch):
    tables = [json.loads(path.read_text())["entries"]
              for path in (bundled_spec_path().parent / "golden").glob("*.json")]
    distinct = sum(len(set(entries.values())) for entries in tables)
    assert distinct < sum(map(len, tables))  # the tables repeat texts
    calls = _count_parses(monkeypatch)
    shared = golden_tables()
    assert len(calls) == distinct
    with monkeypatch.context() as m:
        _unshared(m)
        assert golden_tables() == shared
