"""Theorem suites run on the frame they are given."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import corpus
from rptgeo import (CLASS_SKEW, ConnectionPack, FrameAlgebra, NotW3Error, Scalar, Tensor,
                    adapted_frame, build_example, check_p_tensor, classify,
                    curvature, family_parameters, fundamental_F, geometry_checks,
                    killing_check, levi_civita, natural_check, rpt_checks, rpt_connection,
                    run_all, theorem_checks, theorems, validate, verify_curvature_relation,
                    verify_p_tensor_criterion, verify_parallel_torsion,
                    verify_torsion_type)
from rptgeo.example import GOLDEN_VARIANCES, family_brackets
from rptgeo.theorems import rpt_curvature_p_tensor

from helpers import (all_passed, alternate, build_tensor, extended_family_frame,
                     random_frames, single_bracket_frame, six_dim_frame)

FIXTURES = Path(__file__).parent / "fixtures"


def test_family_check_builds_no_second_frame(monkeypatch):
    fa = build_example((1, 2, 3, 5))
    built = []
    init = FrameAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FrameAlgebra, "__init__", counting_init)
    results = theorem_checks(fa)
    assert built == []
    assert results[-1].id == "family-parameter-equivalence"
    assert all_passed(results)


def test_theorem_suite_builds_the_curvature_defect_once(monkeypatch):
    calls = []

    def counting(pack):
        calls.append(pack)
        return defect(pack)

    defect = theorems.curvature_defect
    monkeypatch.setattr(theorems, "curvature_defect", counting)
    results = theorem_checks(adapted_frame(build_example()))
    assert len(calls) == 1
    assert {r.id for r in results} >= {"curvature-comparison", "parallel-torsion"}


def test_levi_civita_curvature_is_not_product_invariant():
    fa = six_dim_frame()
    result = check_p_tensor(curvature(levi_civita(fa))[0], fa)
    assert not result.passed
    assert result.witnesses
    # a Riemannian curvature tensor has every other P-tensor symmetry
    assert {w.label for w in result.witnesses} == {"product-invariance"}


def test_skew_torsion_curvature_with_parallel_torsion_is_a_p_tensor():
    fa = build_example((1, 2, 1, 2))
    result = check_p_tensor(curvature(rpt_connection(fa).rpt)[0], fa)
    assert result.passed and not result.witnesses


def _parameter_free_packs():
    # on the adapted frame, where every command decides it
    for fa in random_frames() + [build_example((1, 2, 1, 2))]:
        if fa.params:
            continue
        af = adapted_frame(fa)
        try:
            yield af, rpt_connection(af)
        except NotW3Error:
            continue


def test_memoised_p_tensor_predicate_agrees_with_the_check():
    decided = set()
    for fa, pack in _parameter_free_packs():
        expected = check_p_tensor(curvature(pack.rpt)[0], fa).passed
        assert rpt_curvature_p_tensor(pack) is expected
        decided.add(expected)
    assert decided == {True, False}


def test_structure_identities_report_a_perturbed_f(monkeypatch):
    # F(e1, e2, e3) raised by one breaks all three identities; witness
    # indices are 1-based
    fa = build_example((1, 2, 3, 4))
    f = fundamental_F(fa)
    bump = Tensor(4, "ddd", (), [Scalar.constant((), int(k == 6)) for k in range(64)])
    checks = {r.id: r for r in geometry_checks(fa)}
    assert checks["structure-tensor-identities"].status == "pass"
    assert checks["structure-tensor-identities"].witnesses == []

    monkeypatch.setattr(theorems, "fundamental_F", lambda frame: f + bump)
    result = {r.id: r for r in geometry_checks(fa)}["structure-tensor-identities"]
    assert result.status == "fail"
    assert {w.label for w in result.witnesses} == {
        "symmetric-last-pair", "product-antisymmetry", "mixed-product-identity"}
    assert ((1, 2, 3), "symmetric-last-pair") in \
        {(w.index, w.label) for w in result.witnesses}


# the non-W3 skip path names its checks by hand; these tie the names to
# what the suites produce on frames where they run
@pytest.mark.parametrize("frame, on_family", [(lambda: build_example(), True),
                                              (lambda: build_example((1, 2, 3, 5)), True),
                                              (six_dim_frame, False)],
                         ids=["family-symbolic", "family-1235", "six-dim"])
def test_skip_lists_name_the_checks_the_suites_produce(frame, on_family):
    af = adapted_frame(frame())
    family = ("family-parameter-equivalence",) if on_family else ()
    assert tuple(r.id for r in rpt_checks(af)) == theorems._RPT_CHECK_IDS
    assert tuple(r.id for r in theorem_checks(af)) == theorems._THEOREM_CHECK_IDS + family


def test_frozen_non_w3_report_skips_exactly_the_listed_checks():
    data = json.loads((FIXTURES / "check_single_bracket.json").read_text(encoding="utf-8"))
    skipped = tuple(c["id"] for c in data["checks"] if c["status"] == "skip")
    assert skipped == theorems._RPT_CHECK_IDS + theorems._THEOREM_CHECK_IDS + (
        "family-parameter-equivalence",)
    assert len(skipped) == 14


def test_suite_ids_are_the_benchmark_output_contract():
    # perfbench/corpus.py hard-codes the ids `check --suite all` returns; a
    # new id in `all` must go through the ROADMAP "output contract"
    message = "check ids differ from perfbench/corpus.py: see the ROADMAP output contract"
    family = build_example((1, 2, 3, 5))
    assert tuple(r.id for r in geometry_checks(family)) == corpus.GEOMETRY_IDS, message
    assert theorems._RPT_CHECK_IDS == corpus.RPT_IDS, message
    assert theorems._THEOREM_CHECK_IDS == corpus.THEOREM_IDS, message
    assert theorem_checks(adapted_frame(family))[-1].id == corpus.FAMILY_ID, message
    assert theorem_checks(single_bracket_frame())[-1].id == corpus.FAMILY_ID, message
    golden = tuple("golden-%s" % name for name in GOLDEN_VARIANCES) + ("golden-scalars",)
    assert golden == corpus.GOLDEN_IDS, message


# From dimension 6 on, a 3-form on one eigenspace of P added to the torsion
# gives another natural connection with skew torsion.  Of the theorem
# checks, only the scalar norm relation and the torsion type single out the
# paper's T: the statements unique "in terms of nabla P".

def _eigenspace_form(fa, slots):
    """The unit 3-form on three adapted basis vectors."""
    unit = build_tensor(fa.dim, "ddd", fa.params,
                        lambda idx: Scalar.constant(fa.params, int(idx == slots)))
    return alternate(unit, (0, 1, 2)).scale(6)


def _theorem_results(pack):
    defect = theorems.curvature_defect(pack)
    return {r.id: r for r in (verify_curvature_relation(pack, defect),
                              verify_torsion_type(pack), verify_p_tensor_criterion(pack),
                              verify_parallel_torsion(pack, defect))}


@pytest.mark.parametrize("slots, sign", [((0, 1, 2), 1), ((3, 4, 5), -1)],
                         ids=["V+", "V-"])
def test_eigenspace_form_in_the_torsion_fails_only_the_norm_relation_and_type(slots, sign):
    af = adapted_frame(six_dim_frame())
    assert all(af.p[i][i] == Scalar.constant((), sign) for i in slots)
    tau = _eigenspace_form(af, slots)
    assert tau == alternate(tau, (0, 1, 2)) and not tau.is_zero
    pack = ConnectionPack(af, rpt_connection(af).T + tau)
    assert natural_check("natural-connection", af, pack.rpt).passed

    results = _theorem_results(pack)
    comparison = results["curvature-comparison"]
    assert comparison.status == "fail"
    assert {w.label for w in comparison.witnesses} == {"scalar-norm-relation"}
    assert comparison.details == {"tau": "-195/2", "tau_prime": "-9987/64"}
    assert results["torsion-type"].status == "fail"
    assert {w.label for w in results["torsion-type"].witnesses} == {"projection-4-vanishes"}
    assert results["p-tensor-criterion"].passed
    assert results["parallel-torsion"].passed


def test_paper_torsion_passes_every_theorem_check_in_dimension_six():
    af = adapted_frame(six_dim_frame())
    pack = rpt_connection(af)
    assert natural_check("natural-connection", af, pack.rpt).passed
    assert all(r.passed for r in _theorem_results(pack).values())


def test_zero_torsion_on_a_strict_family_frame_fails_every_theorem_check():
    # T = 0 is not the paper's torsion on a W3-strict frame, so each check
    # decides a statement false and flags it
    af = adapted_frame(build_example((1, 2, 3, 5)))
    pack = ConnectionPack(af, Tensor.zeros(4, "ddd", ()))
    results = _theorem_results(pack)
    results["family-parameter-equivalence"] = theorems.verify_family_equivalence(
        pack, family_parameters(af.user))
    assert all(r.status == "fail" for r in results.values())

    def flags(check_id):
        return {w.label: (str(w.expected), str(w.actual))
                for w in results[check_id].witnesses if not w.index}

    # tau' = tau although the frame is not of the parallel class
    assert flags("curvature-comparison")["scalar-equality-iff-parallel-class"] == \
        ("-195/2", "-195/2")
    assert flags("torsion-type") == {"projection-2-nonzero": ("1", "0"),
                                     "projection-3-nonzero": ("1", "0")}
    assert flags("p-tensor-criterion") == {"equivalence": ("0", "1")}
    assert {w.label for w in results["p-tensor-criterion"].witnesses} == {"equivalence"}
    assert results["p-tensor-criterion"].details == {"p_tensor": "false", "relation": "true"}
    family = results["family-parameter-equivalence"]
    assert [w.label for w in family.witnesses] == ["three-way-equivalence"]
    assert flags("family-parameter-equivalence") == {"three-way-equivalence": ("0", "1")}
    assert family.details == {"p_tensor": "false", "parallel": "true",
                              "parameter_condition": "false"}


# The paper's family is the slice s = 0 of a 5-parameter W3 frame (g = I,
# P = the block swap) on which torsion parallel and curvature a P-tensor
# both hold exactly on the two components l3 = eps l1, l2 + s l4 = eps l4.

def _parallel_and_p_tensor(fa):
    pack = rpt_connection(adapted_frame(fa))
    return pack.torsion_derivative().is_zero, rpt_curvature_p_tensor(pack)


def test_the_five_parameter_w3_frame_extends_the_family():
    params = ("l1", "l2", "l3", "l4", "s")
    fa = extended_family_frame(*(Scalar.parameter(params, n) for n in params), params)
    report = validate(fa)
    assert report.passed and report.reason == "positivity unverified (parametric)"
    af = adapted_frame(fa)
    assert classify(af).label == CLASS_SKEW
    results = run_all(af)
    assert len(results) == 17 and all(r.status == "pass" for r in results)
    assert not killing_check(fa).passed
    # the family at s = 0
    lam = [Scalar.parameter(params[:4], n) for n in params[:4]]
    at_zero = extended_family_frame(*lam, Scalar.zero(params[:4]), params[:4])
    assert at_zero.brackets == family_brackets(lam, params[:4])
    # on each component, with (l1, l2, l3, l4) = (a, eps b - s b, eps a, b)
    names = ("a", "b", "s")
    a, b, s = (Scalar.parameter(names, n) for n in names)
    for eps in (1, -1):
        component = extended_family_frame(a, b * eps - s * b, a * eps, b, s, names)
        assert _parallel_and_p_tensor(component) == (True, True)
    point = [Scalar.constant((), v) for v in (1, 2, 3, 4, Fraction(1, 2))]
    assert _parallel_and_p_tensor(extended_family_frame(*point, ())) == (False, False)
