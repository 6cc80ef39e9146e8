"""Machine verification of the curvature and torsion identities.

Every equivalence is decided by evaluating both sides independently, never
by assuming the implication.  A check is a labelled list of tensors that
must vanish, each nonzero component of which is a witness in the user's
basis, plus a ``_flag`` for each statement decided false, and it returns
one ``CheckResult``: a falsified conclusion fails, and a check whose
hypotheses do not hold is skipped with the reason.

The suites that need the skew-torsion connection share one skip path,
``_on_pack``: outside the skew-cyclic class, where no such connection
exists, each of their check ids is skipped with the same reason.  The
family check is among them, so its id is skipped on every non-W3 frame,
whether or not the frame is of the bundled family; on a W3 frame it runs
only on the family.
"""

from __future__ import annotations

from fractions import Fraction

from .connections import (ConnectionPack, NotW3Error, _shifted_connection,
                          companion_shifts, natural_check, rpt_connection)
from .example import EPSILON_CANDIDATES, family_parameters
from .frames import (CheckResult, FrameAlgebra, Witness, check_result, memo,
                     tensor_witnesses, validate)
from .geometry import (CLASS_PARALLEL, CLASS_SKEW, classify, curvature,
                       fundamental_F, levi_civita, square_norm_nabla_P,
                       torsion_projections)
from .scalars import Scalar
from .tensors import Tensor, arranged, cyclic_sum, tensor_contract

_NOT_W3_REASON = ("skipped: no natural connection with totally skew-symmetric "
                  "torsion exists outside the skew-cyclic class")
_UNMET_REASON = "hypotheses not satisfied"
_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)


def _flag(fa: FrameAlgebra, label: str, expected=0, actual=1) -> Witness:
    """Witness of a statement decided false: the truth values as Scalars."""
    return Witness((), Scalar.constant(fa.params, expected),
                   Scalar.constant(fa.params, actual), label)


# ---------------------------------------------------------------------------
# curvature-type predicates and theorem checkers


def p_tensor_defects(r: Tensor, fa: FrameAlgebra) -> list:
    """Labelled tensors that all vanish exactly when the (0,4) tensor r is a
    P-tensor: curvature-type antisymmetries, first cyclic identity, and
    invariance under the product in its last pair."""
    return [(r + arranged(r, "y,x,z,w"), "antisymmetry-first-pair"),
            (r + arranged(r, "x,y,w,z"), "antisymmetry-last-pair"),
            (cyclic_sum(r, (0, 1, 2)), "first-bianchi"),
            (arranged(r, "x,y,Pz,Pw", fa.product) - r, "product-invariance")]


def structure_defects(f: Tensor, fa: FrameAlgebra) -> list:
    """Labelled tensors that all vanish when the (0,3) tensor f has the
    identities of the structure tensor: symmetry in its last pair, product
    antisymmetry, and the mixed product identity."""
    return [(f - arranged(f, "x,z,y"), "symmetric-last-pair"),
            (f + arranged(f, "x,Py,Pz", fa.product), "product-antisymmetry"),
            (arranged(f, "x,y,Pz", fa.product) + arranged(f, "x,Py,z", fa.product),
             "mixed-product-identity")]


def check_p_tensor(r: Tensor, fa: FrameAlgebra) -> CheckResult:
    """Whether a (0,4) tensor is a P-tensor, witnessed in the user's basis."""
    return check_result("p-tensor-axioms", fa, p_tensor_defects(r, fa))


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
    return r - rp + pack.torsion_products().scale(_QUARTER) \
        + pack.torsion_form_square().scale(_QUARTER)


def verify_curvature_relation(pack: ConnectionPack, defect: Tensor) -> CheckResult:
    """Relations between the curvatures, Ricci tensors and scalar curvatures
    of the Levi-Civita and the skew-torsion connection; defect is
    ``curvature_defect(pack)``."""
    fa = pack.frame
    _, rho, tau = curvature(levi_civita(fa))
    _, rhop, taup = curvature(pack.rpt)
    d, ginv = pack.torsion_derivative(), fa.metric_inv
    b03 = tensor_contract(pack.torsion_products(), 0, 3, ginv)
    # R - (R' - d/2 + d(y,x,z,w)/2 - b/4 - sigma/4)
    defects = [(defect + (d - arranged(d, "y,x,z,w")).scale(_HALF), "curvature-relation"),
               (rho - (rhop - tensor_contract(d, 0, 3, ginv).scale(_HALF)
                       - b03.scale(_QUARTER)), "ricci-relation")]
    b13 = tensor_contract(b03, 0, 1, ginv)[()]
    expected = (("scalar-relation", taup - b13 * _QUARTER),
                ("scalar-norm-relation", taup + square_norm_nabla_P(fa) * Fraction(3, 8)))
    scalars = [Witness((), e, tau, label) for label, e in expected if tau != e]
    if (tau == taup) != (classify(fa).label == CLASS_PARALLEL):
        scalars.append(Witness((), taup, tau, "scalar-equality-iff-parallel-class"))
    return check_result("curvature-comparison", fa, defects, scalars,
                        {"tau": str(tau), "tau_prime": str(taup)})


def verify_torsion_type(pack: ConnectionPack) -> CheckResult:
    """Projection content of the skew torsion on a strictly skew-cyclic frame:
    components one and four vanish, two and three do not, and the closed
    forms of the nonvanishing projections hold."""
    fa = pack.frame
    if classify(fa).label != CLASS_SKEW:
        return CheckResult("torsion-type", "skip", reason=_UNMET_REASON,
                           details={"class": classify(fa).label})
    p1, p2, p3, p4 = torsion_projections(pack.T, fa)
    f = fundamental_F(fa)
    p2_closed = arranged(f, "z,x,Py", fa.product)
    p3_closed = (arranged(f, "x,y,Pz", fa.product) + arranged(f, "y,z,Px", fa.product)
                 - p2_closed).scale(_HALF)
    nonzero = [_flag(fa, "projection-%d-nonzero" % k, expected=1, actual=0)
               for k, p in ((2, p2), (3, p3)) if p.is_zero]
    closed = [w for t, label in ((p2 - p2_closed, "projection-2-closed-form"),
                                 (p3 - p3_closed, "projection-3-closed-form"))
              for w in tensor_witnesses(fa, t, label)]
    return check_result("torsion-type", fa, [(p1, "projection-1-vanishes"),
                                             (p4, "projection-4-vanishes")],
                        nonzero + closed)


def verify_p_tensor_criterion(pack: ConnectionPack) -> CheckResult:
    """The curvature of the skew-torsion connection is a P-tensor exactly when
    the quarter/twelfth curvature relation holds; both sides evaluated
    independently, with the consequences checked when they apply."""
    fa = pack.frame
    r, rho, _ = curvature(levi_civita(fa))
    rp, rhop, _ = curvature(pack.rpt)
    b, sigma = pack.torsion_products(), pack.torsion_form_square()
    side_a = rpt_curvature_p_tensor(pack)
    side_b = (r - (rp - b.scale(_QUARTER) + sigma.scale(Fraction(1, 12)))).is_zero
    defects = [(pack.torsion_derivative() + sigma.scale(Fraction(1, 3)),
                "derivative-third-of-form"),
               (rho - (rhop - tensor_contract(b, 0, 3, fa.metric_inv).scale(_QUARTER)),
                "ricci-consequence")] if side_a and side_b else []
    return check_result("p-tensor-criterion", fa, defects,
                        [_flag(fa, "equivalence")] if side_a != side_b else [],
                        {"p_tensor": str(side_a).lower(), "relation": str(side_b).lower()})


def verify_parallel_torsion(pack: ConnectionPack, defect: Tensor) -> CheckResult:
    """Parallel torsion is equivalent to the quarter curvature relation, the
    vanishing of defect = ``curvature_defect(pack)``; when the torsion is
    parallel the pair symmetry, the cyclic identity and the product
    invariance of the curvature follow, and together with the P-tensor
    property the quadratic form vanishes."""
    fa = pack.frame
    d = pack.torsion_derivative()
    parallel, relation = d.is_zero, defect.is_zero
    details = {"parallel": str(parallel).lower(), "relation": str(relation).lower()}
    # when the two sides disagree, the one that should vanish does not
    defects = [(defect if parallel else d, "equivalence")] if parallel != relation else []
    if parallel:
        rp, sigma = curvature(pack.rpt)[0], pack.torsion_form_square()
        defects += [(rp - arranged(rp, "z,w,x,y"), "pair-symmetry"),
                    (cyclic_sum(rp, (0, 1, 2)) - sigma, "cyclic-identity"),
                    (arranged(rp, "Px,Py,Pz,Pw", fa.product) - rp, "product-invariance")]
        p_tensor = rpt_curvature_p_tensor(pack)
        details["p_tensor"] = str(p_tensor).lower()
        if p_tensor:
            r = curvature(levi_civita(fa))[0]
            defects += [(sigma, "quadratic-form-vanishes"),
                        (r - rp + pack.torsion_products().scale(_QUARTER),
                         "quarter-relation")]
    return check_result("parallel-torsion", fa, defects, details=details)


_FAMILY_CHECK_ID = "family-parameter-equivalence"


def verify_family_equivalence(pack: ConnectionPack, lam) -> CheckResult:
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
    if degenerate:
        return CheckResult(_FAMILY_CHECK_ID, "skip", reason=_UNMET_REASON,
                           details=details)
    return check_result(_FAMILY_CHECK_ID, pack.frame, witnesses=[] if agree else
                        [_flag(pack.frame, "three-way-equivalence")], details=details)


# ---------------------------------------------------------------------------
# check suites


def geometry_checks(fa: FrameAlgebra) -> list:
    """Structural axioms of the frame in the user's basis, plus the identities
    forced by the Koszul construction."""
    lc = levi_civita(fa)
    return [validate(fa.user),
            check_result("levi-civita", fa, [(lc.torsion_tensor(), "torsion-free")],
                         lc.metric_witnesses("metric-compatible")),
            check_result("structure-tensor-identities", fa,
                         structure_defects(fundamental_F(fa), fa)),
            check_result("first-bianchi", fa,
                         [(cyclic_sum(curvature(lc)[0], (0, 1, 2)), "first-bianchi")])]


def _on_pack(fa: FrameAlgebra, check_ids: tuple, suite) -> list:
    """suite(pack) on the skew-torsion connection of fa; each of check_ids
    skipped where that connection does not exist."""
    try:
        pack = rpt_connection(fa)
    except NotW3Error:
        return [CheckResult(check_id, "skip", reason=_NOT_W3_REASON)
                for check_id in check_ids]
    return suite(pack)


_RPT_CHECK_IDS = ("torsion-3form", "torsion-transformation-identities",
                  "transformation-cyclic-invariance", "naturality-rpt",
                  "naturality-canonical", "naturality-p-connection",
                  "connection-averaging", "torsion-recovery",
                  "curvature-cyclic-identity")


def _rpt_suite(pack: ConnectionPack) -> list:
    fa, t = pack.frame, pack.T
    f, q, p = fundamental_F(fa), t.scale(_HALF), fa.product
    q_c, q_p = companion_shifts(fa)
    swaps = (("Px,Py,z", "z,y,Px", "swap-first-pair"),
             ("Px,y,Pz", "y,x,Pz", "swap-outer-pair"),
             ("x,Py,Pz", "x,Py,z", "swap-last-pair"))
    results = [
        check_result("torsion-3form", fa, [(t + arranged(t, order), "skew-" + slots)
                                           for order, slots in (("y,x,z", "12"), ("x,z,y", "23"),
                                                                ("z,y,x", "13"))]),
        check_result("torsion-transformation-identities", fa,
                     [(t - (arranged(t, moved, p) - arranged(f, shift, p).scale(2)), label)
                      for moved, shift, label in swaps]),
        check_result("transformation-cyclic-invariance", fa,
                     [(arranged(q, "x,y,Pz", p)
                       - arranged(arranged(q, "y,z,x"), "x,y,Pz", p), "cyclic-invariance")]),
        natural_check("naturality-rpt", fa, pack.rpt),
        natural_check("naturality-canonical", fa, _shifted_connection(fa, q_c)),
        natural_check("naturality-p-connection", fa, _shifted_connection(fa, q_p))]
    cyclic = cyclic_sum(curvature(pack.rpt)[0], (0, 1, 2)) \
        - cyclic_sum(pack.torsion_derivative(), (0, 1, 2)) - pack.torsion_form_square()
    return results + [
        check_result("connection-averaging", fa,
                     [(q_p - (q_c + q).scale(_HALF), "average-connection")]),
        check_result("torsion-recovery", fa, [(pack.rpt.torsion_tensor() - t, "recovered-torsion")]),
        check_result("curvature-cyclic-identity", fa, [(cyclic, "cyclic-curvature")])]


def rpt_checks(fa: FrameAlgebra) -> list:
    """Identities of the skew-torsion layer; skipped outside its class."""
    return _on_pack(fa, _RPT_CHECK_IDS, _rpt_suite)


_THEOREM_CHECK_IDS = ("curvature-comparison", "torsion-type", "p-tensor-criterion",
                      "parallel-torsion")


def _theorem_suite(pack: ConnectionPack) -> list:
    defect = curvature_defect(pack)
    results = [verify_curvature_relation(pack, defect), verify_torsion_type(pack),
               verify_p_tensor_criterion(pack), verify_parallel_torsion(pack, defect)]
    # an adapted frame is never literally the family; its user frame may be
    lam = family_parameters(pack.frame.user)
    if lam is not None:
        results.append(verify_family_equivalence(pack, lam))
    return results


def theorem_checks(fa: FrameAlgebra) -> list:
    """The paper's theorems on the skew-torsion connection; skipped outside
    its class, the family check included."""
    return _on_pack(fa, _THEOREM_CHECK_IDS + (_FAMILY_CHECK_ID,), _theorem_suite)


def run_all(fa: FrameAlgebra) -> list:
    """Every checker applicable to the frame, in deterministic order."""
    return geometry_checks(fa) + rpt_checks(fa) + theorem_checks(fa)
