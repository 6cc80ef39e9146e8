"""Theorem suites run on the frame they are given."""

import json
from pathlib import Path

import pytest

from rptgeo import (FrameAlgebra, NotW3Error, Scalar, Tensor, adapted_frame,
                    all_passed, build_example, check_p_tensor, curvature,
                    fundamental_F, geometry_checks, levi_civita, rpt_checks,
                    rpt_connection, theorem_checks, theorems)
from rptgeo.theorems import rpt_curvature_p_tensor

from helpers import random_frames, six_dim_frame

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
