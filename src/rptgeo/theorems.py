"""Machine verification of the curvature and torsion identities.

Every equivalence is decided by evaluating both sides independently, never
by assuming the implication.  Each check returns one ``CheckResult``: a
falsified conclusion fails, while a check whose hypotheses do not hold, or
one that needs the skew-torsion connection on a frame outside its existence
class, is skipped with the reason.  A suite check keeps its notes in
``details["notes"]``, not in the reason.
"""

from __future__ import annotations

from fractions import Fraction

from .connections import (ConnectionPack, NotW3Error, _shifted_connection,
                          companion_shifts, natural_check, rpt_connection)
from .example import EPSILON_CANDIDATES, family_parameters
from .frames import (CheckResult, FrameAlgebra, Witness, capped_report, memo,
                     tensor_witnesses, validate)
from .geometry import (CLASS_PARALLEL, CLASS_SKEW, classify, curvature,
                       fundamental_F, levi_civita, square_norm_nabla_P,
                       torsion_projections)
from .scalars import Scalar
from .tensors import Tensor, arranged, cyclic_sum, tensor_contract

_NOT_W3_REASON = ("skipped: no natural connection with totally skew-symmetric "
                  "torsion exists outside the skew-cyclic class")
_UNMET_REASON = "hypotheses not satisfied"


def _result(check_id: str, witnesses: list, details=None, notes=()) -> CheckResult:
    """Pass/fail result through the shared collector, its notes moved from
    the reason into the details."""
    result = capped_report(check_id, witnesses, notes)
    result.details = dict(details or {})
    if result.reason:
        result.details["notes"], result.reason = result.reason, None
    return result


def _skipped(check_ids) -> list:
    return [CheckResult(check_id, "skip", reason=_NOT_W3_REASON) for check_id in check_ids]


# ---------------------------------------------------------------------------
# curvature-type predicates and theorem checkers


def p_tensor_defects(r: Tensor, fa: FrameAlgebra) -> list:
    """Labelled tensors that all vanish exactly when the (0,4) tensor r is a
    P-tensor: curvature-type antisymmetries, first cyclic identity, and
    invariance under the product in its last pair."""
    return [(r + arranged(r, "y,x,z,w"), "antisymmetry-first-pair"),
            (r + arranged(r, "x,y,w,z"), "antisymmetry-last-pair"),
            (cyclic_sum(r, (0, 1, 2)), "first-bianchi"),
            (arranged(r, "x,y,Pz,Pw", fa.p) - r, "product-invariance")]


def structure_defects(f: Tensor, fa: FrameAlgebra) -> list:
    """Labelled tensors that all vanish when the (0,3) tensor f has the
    identities of the structure tensor: symmetry in its last pair, product
    antisymmetry, and the mixed product identity."""
    return [(f - arranged(f, "x,z,y"), "symmetric-last-pair"),
            (f + arranged(f, "x,Py,Pz", fa.p), "product-antisymmetry"),
            (arranged(f, "x,y,Pz", fa.p) + arranged(f, "x,Py,z", fa.p),
             "mixed-product-identity")]


def check_p_tensor(r: Tensor, fa: FrameAlgebra) -> CheckResult:
    """Whether a (0,4) tensor is a P-tensor, witnessed in the user's basis."""
    return _result("p-tensor-axioms", [w for t, label in p_tensor_defects(r, fa)
                                       for w in tensor_witnesses(fa, t, label)])


@memo
def rpt_curvature_p_tensor(pack: ConnectionPack) -> bool:
    """Whether the curvature of the skew-torsion connection is a P-tensor,
    decided once per pack with no pull-back to the user's basis."""
    return all(t.is_zero for t, _ in p_tensor_defects(curvature(pack.rpt)[0], pack.frame))


def curvature_defect(pack: ConnectionPack) -> Tensor:
    """R - R' + b/4 + sigma/4 for the Levi-Civita curvature R and the
    skew-torsion curvature R'; it vanishes exactly when the torsion is
    parallel."""
    r, rp = curvature(levi_civita(pack.frame))[0], curvature(pack.rpt)[0]
    quarter = Fraction(1, 4)
    return r - rp + pack.torsion_products().scale(quarter) \
        + pack.torsion_form_square().scale(quarter)


def verify_curvature_relation(fa: FrameAlgebra, pack: ConnectionPack,
                              defect: Tensor) -> CheckResult:
    """Relations between the curvatures, Ricci tensors and scalar curvatures
    of the Levi-Civita and the skew-torsion connection; defect is
    ``curvature_defect(pack)``."""
    _, rho, tau = curvature(levi_civita(fa))
    _, rhop, taup = curvature(pack.rpt)
    d = pack.torsion_derivative()
    b = pack.torsion_products()
    ginv = fa.metric_inv

    witnesses = []
    # R - (R' - d/2 + d(y,x,z,w)/2 - b/4 - sigma/4)
    diff = defect + (d - arranged(d, "y,x,z,w")).scale(Fraction(1, 2))
    witnesses += tensor_witnesses(fa, diff, "curvature-relation")

    expected_rho = rhop - tensor_contract(d, 0, 3, ginv).scale(Fraction(1, 2)) \
        - tensor_contract(b, 0, 3, ginv).scale(Fraction(1, 4))
    witnesses += tensor_witnesses(fa, rho - expected_rho, "ricci-relation")

    b13 = tensor_contract(tensor_contract(b, 0, 3, ginv), 0, 1, ginv)[()]
    details = {"tau": str(tau), "tau_prime": str(taup)}
    if tau != taup - b13 * Fraction(1, 4):
        witnesses.append(Witness((), taup - b13 * Fraction(1, 4), tau,
                                 "scalar-relation"))

    norm = square_norm_nabla_P(fa)
    if tau != taup + norm * Fraction(3, 8):
        witnesses.append(Witness((), taup + norm * Fraction(3, 8), tau,
                                 "scalar-norm-relation"))

    scalars_equal = tau == taup
    is_parallel_class = classify(fa).label == CLASS_PARALLEL
    if scalars_equal != is_parallel_class:
        witnesses.append(Witness((), taup, tau, "scalar-equality-iff-parallel-class"))

    return _result("curvature-comparison", witnesses, details)


def verify_torsion_type(fa: FrameAlgebra, pack: ConnectionPack) -> CheckResult:
    """Projection content of the skew torsion on a strictly skew-cyclic frame:
    components one and four vanish, two and three do not, and the closed
    forms of the nonvanishing projections hold."""
    if classify(fa).label != CLASS_SKEW:
        return CheckResult("torsion-type", "skip", reason=_UNMET_REASON,
                           details={"class": classify(fa).label})
    p1, p2, p3, p4 = torsion_projections(pack.T, fa)
    f = fundamental_F(fa)
    witnesses = []
    witnesses += tensor_witnesses(fa, p1, "projection-1-vanishes")
    witnesses += tensor_witnesses(fa, p4, "projection-4-vanishes")
    if p2.is_zero:
        witnesses.append(Witness((), Scalar.one(fa.params), Scalar.zero(fa.params),
                                 "projection-2-nonzero"))
    if p3.is_zero:
        witnesses.append(Witness((), Scalar.one(fa.params), Scalar.zero(fa.params),
                                 "projection-3-nonzero"))
    p2_closed = arranged(f, "z,x,Py", fa.p)
    witnesses += tensor_witnesses(fa, p2 - p2_closed, "projection-2-closed-form")
    p3_closed = (arranged(f, "x,y,Pz", fa.p) + arranged(f, "y,z,Px", fa.p)
                 - arranged(f, "z,x,Py", fa.p)).scale(Fraction(1, 2))
    witnesses += tensor_witnesses(fa, p3 - p3_closed, "projection-3-closed-form")
    return _result("torsion-type", witnesses)


def verify_p_tensor_criterion(fa: FrameAlgebra, pack: ConnectionPack) -> CheckResult:
    """The curvature of the skew-torsion connection is a P-tensor exactly when
    the quarter/twelfth curvature relation holds; both sides evaluated
    independently, with the consequences checked when they apply."""
    r, rho, _ = curvature(levi_civita(fa))
    rp, rhop, _ = curvature(pack.rpt)
    b = pack.torsion_products()
    sigma = pack.torsion_form_square()

    side_a = rpt_curvature_p_tensor(pack)
    relation = rp - b.scale(Fraction(1, 4)) + sigma.scale(Fraction(1, 12))
    side_b = (r - relation).is_zero

    witnesses = []
    details = {"p_tensor": str(side_a).lower(), "relation": str(side_b).lower()}
    if side_a != side_b:
        witnesses.append(Witness((), Scalar.zero(fa.params), Scalar.one(fa.params),
                                 "equivalence"))
    if side_a and side_b:
        d = pack.torsion_derivative()
        witnesses += tensor_witnesses(fa, d + sigma.scale(Fraction(1, 3)),
                                       "derivative-third-of-form")
        ginv = fa.metric_inv
        expected_rho = rhop - tensor_contract(b, 0, 3, ginv).scale(Fraction(1, 4))
        witnesses += tensor_witnesses(fa, rho - expected_rho, "ricci-consequence")
    return _result("p-tensor-criterion", witnesses, details)


def verify_parallel_torsion(fa: FrameAlgebra, pack: ConnectionPack,
                            defect: Tensor) -> CheckResult:
    """Parallel torsion is equivalent to the quarter curvature relation, the
    vanishing of defect = ``curvature_defect(pack)``; when the torsion is
    parallel the pair symmetry, the cyclic identity and the product
    invariance of the curvature follow, and together with the P-tensor
    property the quadratic form vanishes."""
    r, _, _ = curvature(levi_civita(fa))
    rp, _, _ = curvature(pack.rpt)
    d = pack.torsion_derivative()
    b = pack.torsion_products()
    sigma = pack.torsion_form_square()

    parallel = d.is_zero
    relation = defect.is_zero
    witnesses = []
    details = {"parallel": str(parallel).lower(), "relation": str(relation).lower()}
    if parallel != relation:
        label = "equivalence"
        witnesses += tensor_witnesses(fa, defect if parallel else d, label) or \
            [Witness((), Scalar.zero(fa.params), Scalar.one(fa.params), label)]
    if parallel:
        witnesses += tensor_witnesses(fa, rp - arranged(rp, "z,w,x,y"), "pair-symmetry")
        witnesses += tensor_witnesses(fa, cyclic_sum(rp, (0, 1, 2)) - sigma,
                                       "cyclic-identity")
        witnesses += tensor_witnesses(fa, arranged(rp, "Px,Py,Pz,Pw", fa.p) - rp,
                                       "product-invariance")
        p_tensor = rpt_curvature_p_tensor(pack)
        details["p_tensor"] = str(p_tensor).lower()
        if p_tensor:
            witnesses += tensor_witnesses(fa, sigma, "quadratic-form-vanishes")
            witnesses += tensor_witnesses(fa, r - rp + b.scale(Fraction(1, 4)),
                                           "quarter-relation")
    return _result("parallel-torsion", witnesses, details)


def verify_family_equivalence(fa: FrameAlgebra, pack: ConnectionPack,
                              lam) -> CheckResult:
    """Three-way equivalence on the bundled family, for a frame of the family
    with parameter Scalars lam: the curvature of the skew-torsion connection
    is a P-tensor, iff its torsion is parallel, iff the second parameter pair
    is a common sign multiple of the first."""
    cond_i = rpt_curvature_p_tensor(pack)
    cond_ii = pack.torsion_derivative().is_zero
    l1, l2, l3, l4 = lam
    cond_iii = any((l3 - l1 * eps).is_zero and (l4 - l2 * eps).is_zero
                   for eps in EPSILON_CANDIDATES)
    degenerate = all(v.is_zero for v in lam)
    agree = cond_i == cond_ii == cond_iii
    details = {"p_tensor": str(cond_i).lower(), "parallel": str(cond_ii).lower(),
               "parameter_condition": str(cond_iii).lower()}
    witnesses = []
    if not agree:
        witnesses.append(Witness((), Scalar.zero(fa.params), Scalar.one(fa.params),
                                 "three-way-equivalence"))
    status = "skip" if degenerate else "pass" if agree else "fail"
    return CheckResult("family-parameter-equivalence", status, witnesses,
                       _UNMET_REASON if degenerate else None, details)


# ---------------------------------------------------------------------------
# check suites


def geometry_checks(fa: FrameAlgebra) -> list:
    """Structural axioms of the frame in the user's basis, plus the identities
    forced by the Koszul construction."""
    structure = validate(fa.user)
    results = [_result(structure.id, structure.witnesses,
                       notes=[structure.reason] if structure.reason else ())]
    lc = levi_civita(fa)
    witnesses = tensor_witnesses(fa, lc.torsion_tensor(), "torsion-free")
    witnesses += lc.metric_witnesses("metric-compatible")
    results.append(_result("levi-civita", witnesses))

    witnesses = [w for t, label in structure_defects(fundamental_F(fa), fa)
                 for w in tensor_witnesses(fa, t, label)]
    results.append(_result("structure-tensor-identities", witnesses))

    r, _, _ = curvature(lc)
    witnesses = tensor_witnesses(fa, cyclic_sum(r, (0, 1, 2)), "first-bianchi")
    results.append(_result("first-bianchi", witnesses))
    return results


_RPT_CHECK_IDS = ("torsion-3form", "torsion-transformation-identities",
                  "transformation-cyclic-invariance", "naturality-rpt",
                  "naturality-canonical", "naturality-p-connection",
                  "connection-averaging", "torsion-recovery",
                  "curvature-cyclic-identity")


def rpt_checks(fa: FrameAlgebra) -> list:
    """Identities of the skew-torsion layer; skipped outside its class."""
    try:
        pack = rpt_connection(fa)
    except NotW3Error:
        return _skipped(_RPT_CHECK_IDS)
    results = []
    t, f, q = pack.T, fundamental_F(fa), pack.T.scale(Fraction(1, 2))
    q_c, q_p = companion_shifts(fa)

    witnesses = tensor_witnesses(fa, t + arranged(t, "y,x,z"), "skew-12")
    witnesses += tensor_witnesses(fa, t + arranged(t, "x,z,y"), "skew-23")
    witnesses += tensor_witnesses(fa, t + arranged(t, "z,y,x"), "skew-13")
    results.append(_result("torsion-3form", witnesses))

    witnesses = []
    lhs = arranged(t, "Px,Py,z", fa.p) - arranged(f, "z,y,Px", fa.p).scale(2)
    witnesses += tensor_witnesses(fa, t - lhs, "swap-first-pair")
    lhs = arranged(t, "Px,y,Pz", fa.p) - arranged(f, "y,x,Pz", fa.p).scale(2)
    witnesses += tensor_witnesses(fa, t - lhs, "swap-outer-pair")
    lhs = arranged(t, "x,Py,Pz", fa.p) - arranged(f, "x,Py,z", fa.p).scale(2)
    witnesses += tensor_witnesses(fa, t - lhs, "swap-last-pair")
    results.append(_result("torsion-transformation-identities", witnesses))

    witnesses = tensor_witnesses(
        fa, arranged(q, "x,y,Pz", fa.p) - arranged(arranged(q, "y,z,x"), "x,y,Pz", fa.p),
        "cyclic-invariance")
    results.append(_result("transformation-cyclic-invariance", witnesses))

    for check_id, conn in (("naturality-rpt", pack.rpt),
                           ("naturality-canonical", _shifted_connection(fa, q_c)),
                           ("naturality-p-connection", _shifted_connection(fa, q_p))):
        results.append(_result(check_id, natural_check(fa, conn).witnesses))

    averaged = (q_c + q).scale(Fraction(1, 2))
    witnesses = tensor_witnesses(fa, q_p - averaged, "average-connection")
    results.append(_result("connection-averaging", witnesses))

    witnesses = tensor_witnesses(fa, pack.rpt.torsion_tensor() - t,
                                 "recovered-torsion")
    results.append(_result("torsion-recovery", witnesses))

    rp, _, _ = curvature(pack.rpt)
    d = pack.torsion_derivative()
    sigma = pack.torsion_form_square()
    witnesses = tensor_witnesses(
        fa, cyclic_sum(rp, (0, 1, 2)) - cyclic_sum(d, (0, 1, 2)) - sigma,
        "cyclic-curvature")
    results.append(_result("curvature-cyclic-identity", witnesses))
    return results


_THEOREM_CHECK_IDS = ("curvature-comparison", "torsion-type", "p-tensor-criterion",
                      "parallel-torsion")


def theorem_checks(fa: FrameAlgebra) -> list:
    try:
        pack = rpt_connection(fa)
    except NotW3Error:
        return _skipped(_THEOREM_CHECK_IDS + ("family-parameter-equivalence",))
    defect = curvature_defect(pack)
    results = [
        verify_curvature_relation(fa, pack, defect),
        verify_torsion_type(fa, pack),
        verify_p_tensor_criterion(fa, pack),
        verify_parallel_torsion(fa, pack, defect),
    ]
    # an adapted frame is never literally the family; its user frame may be
    lam = family_parameters(fa.user)
    if lam is not None:
        results.append(verify_family_equivalence(fa, pack, lam))
    return results


def run_all(fa: FrameAlgebra) -> list:
    """Every checker applicable to the frame, in deterministic order."""
    return geometry_checks(fa) + rpt_checks(fa) + theorem_checks(fa)


def all_passed(results) -> bool:
    return not any(r.status == "fail" for r in results)
