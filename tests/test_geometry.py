"""Levi-Civita layer: connection, structure tensor, curvature, classification."""

import itertools
from fractions import Fraction

import pytest

from rptgeo import (CLASS_OUTSIDE, CLASS_PARALLEL, CLASS_SKEW, Connection,
                    ConnectionPack, FrameAlgebra, Scalar, Tensor, adapted_frame, arranged,
                    build_example, classify, curvature, cyclic_sum, fundamental_F,
                    levi_civita, mat_identity, mat_inv, parse_expression, rpt_connection,
                    scalar_curvature, square_norm_nabla_P, torsion_projections, validate)
from rptgeo.theorems import structure_defects

from helpers import (abelian_plane, basis_vec, build_tensor, curvature_oracle,
                     extended_family_frame, family_frame, inner, koszul_killing_oracle,
                     nabla_p_killing_oracle, projection_oracle, random_frames,
                     scaled_family_frame, sheared_family_frame, single_bracket_frame,
                     six_dim_frame, symbolic_metric_frame, three_form)

SYM = build_example()
LC = levi_civita(SYM)


def S(text):
    return parse_expression(text, SYM.params)


def test_abelian_connection_vanishes():
    fa = build_example((0, 0, 0, 0))
    lc = levi_civita(fa)
    assert all(s.is_zero for s in lc.coeffs.comps)


def test_connection_value_from_shortcut_oracle():
    # the bracket shortcut is valid under the Killing condition
    assert [str(LC.coeffs[0, 0, k]) for k in range(4)] == ["0", "-l1", "0", "l3"]
    for i in range(4):
        for j in range(4):
            assert [LC.coeffs[i, j, k] for k in range(4)] == koszul_killing_oracle(SYM, i, j)


def test_koszul_invariants_on_random_frames():
    for fa in random_frames(8):
        lc = levi_civita(fa)
        assert lc.torsion_tensor().is_zero
        n = fa.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = inner(fa, [lc.coeffs[i, j, s] for s in range(n)], basis_vec(fa, k)) \
                        + inner(fa, basis_vec(fa, j), [lc.coeffs[i, k, s] for s in range(n)])
                    assert lhs.is_zero


def test_singular_metric_raises():
    fa = build_example((1, 2, 3, 4))
    g = [[s for s in row] for row in fa.g]
    g[0][0] = Scalar.zero(())
    g[1][1] = Scalar.zero(())
    bad = FrameAlgebra(4, (), fa.c, g, fa.p)
    bad.g[0][1] = Scalar.zero(())
    with pytest.raises(ValueError):
        levi_civita(bad)


def test_structure_tensor_value_and_oracle():
    f = fundamental_F(SYM)
    assert f[0, 0, 1] == S("-1/2*l3")
    for i in range(4):
        for j in range(4):
            vec = nabla_p_killing_oracle(SYM, i, j)
            for k in range(4):
                assert f[i, j, k] == inner(SYM, vec, basis_vec(SYM, k))


def test_structure_tensor_identities_on_random_frames():
    for fa in random_frames(6):
        f = fundamental_F(fa)
        assert all(t.is_zero for t, _ in structure_defects(f, fa))
        n = fa.dim
        p = fa.p
        for idx in f.indices():
            i, j, k = idx
            assert f[i, j, k] == f[i, k, j]


def test_structure_tensor_product_antisymmetry_componentwise():
    f = fundamental_F(SYM)
    # F(x, y, z) + F(x, Py, Pz) = 0, using that the product swaps pairs
    swap = lambda a: (a + 2) % 4
    for idx in f.indices():
        i, j, k = idx
        assert (f[i, j, k] + f[i, swap(j), swap(k)]).is_zero


def test_abelian_structure_tensor_vanishes():
    fa = build_example((0, 0, 0, 0))
    assert fundamental_F(fa).is_zero


def _norm_oracle(fa):
    """Sum of g^ii' g^jj' g(N_ij, N_i'j') with N_ij = (nabla_i P) e_j taken
    from the bracket shortcut, independent of the structure tensor."""
    n = fa.dim
    ginv = mat_inv(fa.g)
    nab = [[nabla_p_killing_oracle(fa, i, j) for j in range(n)] for i in range(n)]
    acc = Scalar.zero(fa.params)
    for i, i2, j, j2 in itertools.product(range(n), repeat=4):
        weight = ginv[i][i2] * ginv[j][j2]
        if not weight.is_zero:
            acc = acc + weight * inner(fa, nab[i][j], nab[i2][j2])
    return acc


def test_square_norm_values():
    assert square_norm_nabla_P(SYM) == S("4*(l1^2 + l2^2 + l3^2 + l4^2)")
    fa = build_example((1, 2, 3, 4))
    assert square_norm_nabla_P(fa).constant_value() == 120
    fa0 = build_example((0, 0, 0, 0))
    assert square_norm_nabla_P(fa0).is_zero
    for fa in random_frames():
        if fa.dim == 4:
            assert square_norm_nabla_P(fa) == _norm_oracle(fa)


def test_curvature_scalar_and_bianchi():
    riem, ricci, tau = curvature(LC)
    assert tau == S("-5/2*(l1^2 + l2^2 + l3^2 + l4^2)")
    assert cyclic_sum(riem, (0, 1, 2)).is_zero
    fa0 = build_example((0, 0, 0, 0))
    r0, _, tau0 = curvature(levi_civita(fa0))
    assert r0.is_zero and tau0.is_zero


def test_curvature_antisymmetries_metric_connection():
    riem, _, _ = curvature(LC)
    assert (riem + riem.transpose((1, 0, 2, 3))).is_zero
    assert (riem + riem.transpose((0, 1, 3, 2))).is_zero


def test_first_bianchi_on_random_frames():
    for fa in random_frames(6):
        riem, _, _ = curvature(levi_civita(fa))
        assert cyclic_sum(riem, (0, 1, 2)).is_zero


def test_curvature_matches_the_oracle_on_random_frames():
    # Levi-Civita and the skew-torsion connection, whose curvature is not
    # pair-symmetric, on every 4-dim frame of the battery (the first is
    # symbolic_metric_frame), a 6-dim one, the sheared family, whose P is
    # parametric, and a block sum (random_frames(15) ends with the first
    # sum8 frame); each also on its adapted frame, where commands compute
    # it, and pulled back to the user's basis
    frames = [fa for fa in random_frames() if fa.dim == 4]
    for fa in frames + [six_dim_frame(), sheared_family_frame(), random_frames(15)[-1]]:
        af = adapted_frame(fa)
        for conn, adapted in ((levi_civita(fa), levi_civita(af)),
                              (rpt_connection(fa).rpt, rpt_connection(af).rpt)):
            r, r_adapted = curvature(conn)[0], curvature(adapted)[0]
            assert r == curvature_oracle(conn)
            assert r_adapted == curvature_oracle(adapted)
            assert af.to_user(r_adapted) == r


def _extended_symbolic_frame():
    params = ("l1", "l2", "l3", "l4", "s")
    return extended_family_frame(*(Scalar.parameter(params, n) for n in params), params)


_TAU_BUILDERS = {
    "family": lambda: family_frame([Scalar.constant((), k) for k in (1, 2, 3, 4)], ()),
    "family-symbolic": build_example,
    "symbolic-metric": symbolic_metric_frame,
    "sheared": sheared_family_frame,
    "scaled": scaled_family_frame,
    "extended": _extended_symbolic_frame,
    "abelian-plane": abelian_plane,
    "six-dim": six_dim_frame,
    "single-bracket": single_bracket_frame,
}


def _tau_connections(fa):
    """Levi-Civita and, off the outside class, the skew-torsion connection."""
    if classify(fa).label == CLASS_OUTSIDE:
        return [levi_civita(fa)]
    return [levi_civita(fa), rpt_connection(fa).rpt]


@pytest.mark.parametrize("name", list(_TAU_BUILDERS))
def test_scalar_curvature_is_the_trace_of_the_riemann_ricci(name):
    # each builder, in the user's basis and on its adapted frame; the
    # single-bracket frame is outside W3, so it has Levi-Civita only
    fa = _TAU_BUILDERS[name]()
    for frame in (fa, adapted_frame(fa)):
        conns = _tau_connections(frame)
        assert len(conns) == (1 if name == "single-bracket" else 2)
        for conn in conns:
            assert scalar_curvature(conn) == curvature(conn)[2]


def test_scalar_curvature_on_the_battery_and_other_connections():
    # the battery: conjugates, block sums, dense 8-dim conjugates, a W0 frame
    for fa in random_frames():
        for frame in (fa, adapted_frame(fa)):
            for conn in _tau_connections(frame):
                assert scalar_curvature(conn) == curvature(conn)[2]
    # connections other than the paper's: its torsion plus a 3-form on V+,
    # another natural connection, and d_x y = [x, y], neither metric nor
    # torsion-free
    af = adapted_frame(six_dim_frame())
    form = three_form(6, (), {(0, 1, 2): Scalar.one(())})
    others = [ConnectionPack(af, rpt_connection(af).T + form).rpt,
              Connection(af, af.brackets.lower_slot(2, af.metric)),
              Connection(SYM, SYM.brackets.lower_slot(2, SYM.metric))]
    for conn in others:
        assert scalar_curvature(conn) == curvature(conn)[2]
    assert scalar_curvature(others[0]) != scalar_curvature(rpt_connection(af).rpt)


def test_classify_example_and_degenerations():
    assert classify(SYM).label == CLASS_SKEW
    assert classify(build_example((0, 0, 0, 0))).label == CLASS_PARALLEL
    assert classify(build_example((1, 0, 0, 0))).label == CLASS_SKEW


def test_classify_single_bracket_against_oracle():
    fa = single_bracket_frame()
    assert validate(fa).passed
    label = classify(fa)
    # oracle: direct cyclic-sum evaluation of the structure tensor
    f = fundamental_F(fa)
    cyc_zero = all(
        (f[i, j, k] + f[j, k, i] + f[k, i, j]).is_zero
        for i in range(4) for j in range(4) for k in range(4))
    f_zero = f.is_zero
    expect = CLASS_PARALLEL if f_zero else (CLASS_SKEW if cyc_zero else CLASS_OUTSIDE)
    assert label.label == expect == CLASS_OUTSIDE


def test_projections_sum_and_orthogonality():
    pack = rpt_connection(SYM)
    p1, p2, p3, p4 = torsion_projections(pack.T, SYM)
    assert p1.is_zero and p4.is_zero
    assert (p1 + p2 + p3 + p4) == pack.T
    # re-projecting: each projector is idempotent, mixed projections vanish
    projections = (p1, p2, p3, p4)
    for a, pa in enumerate(projections):
        again = torsion_projections(pa, SYM)
        for b, pb in enumerate(again):
            if a == b:
                assert pb == pa
            else:
                assert pb.is_zero


def test_projection_oracle_agreement():
    pack = rpt_connection(SYM)
    got = torsion_projections(pack.T, SYM)
    want = projection_oracle(pack.T, SYM)
    for a, b in zip(got, want):
        assert a == b


def test_projection_completeness_on_general_antisymmetric_input():
    import random
    rng = random.Random(3)
    comps = []
    params = SYM.params
    for i in range(4):
        for j in range(4):
            for k in range(4):
                comps.append(Scalar.constant(params, rng.randint(-3, 3)))
    raw = Tensor(4, "ddd", params, comps)
    t = raw - raw.transpose((1, 0, 2))  # antisymmetric in first two slots only
    p1, p2, p3, p4 = torsion_projections(t, SYM)
    assert (p1 + p2 + p3 + p4) == t
    assert [p1, p2, p3, p4] == list(projection_oracle(t, SYM))


def test_projections_evaluate_each_pattern_once(monkeypatch):
    import rptgeo.geometry as geometry
    patterns = []
    # built before the spy, which then sees only the projections: building
    # the pack runs geometry's own patterns (the Koszul sum and nabla P)
    t = rpt_connection(SYM).T

    def spy(t, pattern, product=None):
        patterns.append(pattern)
        return arranged(t, pattern, product)

    monkeypatch.setattr(geometry, "arranged", spy)
    torsion_projections(t, SYM)
    assert len(patterns) == len(set(patterns)) == 12  # 11 and the skew guard


def test_projections_zero_torsion():
    z = Tensor.zeros(4, "ddd", SYM.params)
    assert all(p.is_zero for p in torsion_projections(z, SYM))


def test_projections_reject_nonantisymmetric():
    t = build_tensor(4, "ddd", SYM.params,
                     lambda idx: Scalar.constant(SYM.params, 1))
    with pytest.raises(ValueError, match="antisymmetric"):
        torsion_projections(t, SYM)
