"""The skew-torsion natural connection and its companion connections."""

import functools
import random
from fractions import Fraction
from math import comb

import pytest

from rptgeo import (CLASS_OUTSIDE, CLASS_PARALLEL, Connection, ConnectionPack, NotW3Error,
                    Scalar, Tensor, adapted_frame, arranged, build_example, classify, compose,
                    covariant_derivative, curvature, cyclic_sum, fundamental_F, levi_civita,
                    natural_check, null_space, parse_expression, rpt_connection, rpt_torsion,
                    sigma_T, torsion_inner_products)
from rptgeo.connections import _shifted_connection, companion_shifts

from helpers import (abelian_plane, alternate, apply_p, basis_vec, bracket_vec, build_tensor,
                     conjugate, covariant_derivative_oracle, direct_sum, existence_system,
                     inner, metric_witness_oracle, random_frames, random_unimodular,
                     sheared_family_frame, single_bracket_frame, six_dim_frame,
                     symbolic_metric_frame, three_form, torsion_products_oracle, vec_add,
                     vec_scale)

SYM = build_example()
PACK = rpt_connection(SYM)
# the full battery: 4-dim conjugates, 8-dim block sums and dense-P conjugates
RANDOM = random_frames()


def S(text):
    return parse_expression(text, SYM.params)


def test_torsion_paper_values():
    assert PACK.T[0, 2, 3] == S("-l1")
    assert PACK.T[0, 1, 2] == S("-l3")
    assert PACK.T[1, 2, 3] == S("-l2")
    assert PACK.T[0, 1, 3] == S("-l4")


def test_torsion_vanishes_on_repeated_arguments():
    for i in range(4):
        for j in range(4):
            assert PACK.T[i, i, j].is_zero
            assert PACK.T[i, j, j].is_zero
            assert PACK.T[i, j, i].is_zero


def test_torsion_totally_skew_on_random_frames():
    for fa in random_frames(6):
        f = fundamental_F(fa)
        t = rpt_torsion(f, fa)
        assert t == alternate(t, (0, 1, 2))


def test_connection_paper_values():
    assert [str(PACK.rpt.coeffs[0, 1, k]) for k in range(4)] == ["l1", "0", "-l3", "0"]
    assert [str(PACK.rpt.coeffs[1, 1, k]) for k in range(4)] == ["l2", "0", "-l4", "0"]


def test_parallel_case_collapses_to_levi_civita():
    fa = build_example((0, 0, 0, 0))
    pack = rpt_connection(fa)
    assert pack.T.is_zero
    assert pack.rpt.coeffs == levi_civita(fa).coeffs


def test_not_w3_refusal():
    with pytest.raises(NotW3Error):
        rpt_connection(single_bracket_frame())


def test_rpt_torsion_total_even_outside_class():
    # the torsion formula itself stays evaluable outside the class
    fa = single_bracket_frame()
    f = fundamental_F(fa)
    t = rpt_torsion(f, fa)
    assert t.variance == "ddd"


def test_shortcut_identities_from_brackets():
    # torsion shortcut: T of (X_i, X_j) equals minus the bracket of the
    # product images; connection shortcut adds the product-twisted bracket
    fa = SYM
    for i in range(4):
        for j in range(4):
            ei, ej = basis_vec(fa, i), basis_vec(fa, j)
            t_vec = vec_scale(bracket_vec(fa, apply_p(fa, ei), apply_p(fa, ej)),
                              Scalar.constant(fa.params, -1))
            for k in range(4):
                assert PACK.T[i, j, k] == inner(fa, t_vec, basis_vec(fa, k))
            conn_vec = vec_add(bracket_vec(fa, ei, ej),
                               apply_p(fa, bracket_vec(fa, ei, apply_p(fa, ej))))
            assert [PACK.rpt.coeffs[i, j, k] for k in range(4)] == conn_vec


def test_bracket_product_four_term_identity():
    # the family satisfies: [Px,Py] + P[Px,y] + P[x,Py] + [x,y] = 0
    fa = SYM
    for i in range(4):
        for j in range(4):
            ei, ej = basis_vec(fa, i), basis_vec(fa, j)
            total = bracket_vec(fa, apply_p(fa, ei), apply_p(fa, ej))
            total = vec_add(total, apply_p(fa, bracket_vec(fa, apply_p(fa, ei), ej)))
            total = vec_add(total, apply_p(fa, bracket_vec(fa, ei, apply_p(fa, ej))))
            total = vec_add(total, bracket_vec(fa, ei, ej))
            assert all(s.is_zero for s in total)


def test_torsion_transformation_identities_on_random_frames():
    for fa in random_frames(5):
        try:
            pack = rpt_connection(fa)
        except NotW3Error:
            continue
        t, f, p = pack.T, fundamental_F(fa), fa.p
        assert t == arranged(t, "Px,Py,z", p) - arranged(f, "z,y,Px", p).scale(2)
        assert t == arranged(t, "Px,y,Pz", p) - arranged(f, "y,x,Pz", p).scale(2)
        assert t == arranged(t, "x,Py,Pz", p) - arranged(f, "x,Py,z", p).scale(2)


def test_transformation_cyclic_invariance():
    q, p = PACK.T.scale(Fraction(1, 2)), SYM.p
    lhs = arranged(q, "x,y,Pz", p)
    rhs = arranged(arranged(q, "y,z,x"), "x,y,Pz", p)
    assert lhs == rhs


def test_averaging_identity_on_random_frames():
    for fa in random_frames(5):
        try:
            pack = rpt_connection(fa)
        except NotW3Error:
            continue
        q_c, q_p = companion_shifts(fa)
        assert q_p == (q_c + pack.T.scale(Fraction(1, 2))).scale(Fraction(1, 2))


def test_torsion_recovery():
    assert PACK.rpt.torsion_tensor() == PACK.T
    fa = build_example((2, -1, 3, Fraction(1, 2)))
    pack = rpt_connection(fa)
    assert pack.rpt.torsion_tensor() == pack.T


def test_naturality():
    assert natural_check("natural-connection", SYM, PACK.rpt).passed
    for q in companion_shifts(SYM):
        assert natural_check("natural-connection", SYM, _shifted_connection(SYM, q)).passed
    report = natural_check("natural-connection", SYM, levi_civita(SYM))
    assert not report.passed  # generic parameters: the product is not parallel
    fa0 = build_example((0, 0, 0, 0))
    assert natural_check("natural-connection", fa0, levi_civita(fa0)).passed


def test_sigma_vanishes_on_example():
    sigma = sigma_T(PACK.T, SYM)
    assert sigma.is_zero
    # derived oracle: expand the three cyclic terms from the torsion table
    fa = SYM
    t_vecs = {}
    for i in range(4):
        for j in range(4):
            t_vecs[i, j] = vec_scale(
                bracket_vec(fa, apply_p(fa, basis_vec(fa, i)),
                            apply_p(fa, basis_vec(fa, j))),
                Scalar.constant(fa.params, -1))
    val = inner(fa, t_vecs[0, 1], t_vecs[2, 3]) \
        + inner(fa, t_vecs[1, 2], t_vecs[0, 3]) \
        + inner(fa, t_vecs[2, 0], t_vecs[1, 3])
    assert val.is_zero


def test_sigma_zero_torsion():
    z = Tensor.zeros(4, "ddd", SYM.params)
    assert sigma_T(z, SYM).is_zero


def test_sigma_pair_symmetry_and_form():
    for fa in random_frames(5):
        try:
            pack = rpt_connection(fa)
        except NotW3Error:
            continue
        sigma = pack.torsion_form_square()
        assert sigma == arranged(sigma, "z,w,x,y")
        assert sigma == alternate(sigma, (0, 1, 2, 3))
        assert cyclic_sum(sigma, (0, 1, 2)) == sigma.scale(3)


def test_pack_forms_the_torsion_products_once(monkeypatch):
    import rptgeo.connections as connections
    calls = []

    def counted(t, fa):
        calls.append(t)
        return torsion_inner_products(t, fa)

    monkeypatch.setattr(connections, "torsion_inner_products", counted)
    fa = build_example((1, 2, 3, 5))
    pack = rpt_connection(fa)
    sigma = pack.torsion_form_square()
    assert pack.torsion_products() is pack.torsion_products()
    assert calls == [pack.T]
    assert sigma == sigma_T(pack.T, fa)


def test_sigma_rejects_nonskew():
    t = build_tensor(4, "ddd", SYM.params,
                     lambda idx: Scalar.constant(SYM.params, idx[0]))
    with pytest.raises(ValueError, match="skew"):
        sigma_T(t, SYM)


def test_covariant_derivative_paper_values():
    d = PACK.torsion_derivative()
    assert d[0, 1, 2, 3] == S("l1^2 - l3^2")
    # the published table gives this entry as the difference of the second
    # and fourth parameter squares (checked independently below)
    assert d[1, 0, 3, 2] == S("l2^2 - l4^2")


def test_covariant_derivative_oracle_entry():
    # direct expansion of the derivative of T(X1, X4, X3) along X2
    fa = SYM
    d = PACK.torsion_derivative()

    def t_at(u, v, w):
        total = Scalar.zero(fa.params)
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    if not (u[a].is_zero or v[b].is_zero or w[c].is_zero):
                        total = total + u[a] * v[b] * w[c] * PACK.T[a, b, c]
        return total
    x1, x4, x3 = basis_vec(fa, 0), basis_vec(fa, 3), basis_vec(fa, 2)
    n2 = [[PACK.rpt.coeffs[1, j, k] for k in range(4)] for j in range(4)]
    val = -(t_at(n2[0], x4, x3) + t_at(x1, n2[3], x3) + t_at(x1, x4, n2[2]))
    assert d[1, 0, 3, 2] == val


def test_derivative_of_metric_and_product_vanish():
    g_tensor = build_tensor(4, "dd", SYM.params, lambda idx: SYM.g[idx[0]][idx[1]])
    assert covariant_derivative(SYM, PACK.rpt, g_tensor).is_zero
    p_lowered = build_tensor(4, "dd", SYM.params,
                             lambda idx: SYM.p[idx[0]][idx[1]])
    assert covariant_derivative(SYM, PACK.rpt, p_lowered).is_zero


def test_derived_geometry_is_computed_once():
    fa = build_example((1, 2, 3, 5))
    pack = rpt_connection(fa)
    assert rpt_connection(fa) is pack
    assert levi_civita(fa) is levi_civita(fa)
    assert fundamental_F(fa) is fundamental_F(fa)
    assert classify(fa) is classify(fa)
    assert curvature(pack.rpt) is curvature(pack.rpt)
    assert pack.torsion_derivative() is pack.torsion_derivative()
    assert pack.torsion_products() is pack.torsion_products()
    assert pack.torsion_form_square() is pack.torsion_form_square()


def test_covariant_derivative_matches_oracle_on_random_frames():
    for fa in RANDOM:
        pack = rpt_connection(fa)
        assert covariant_derivative(fa, pack.rpt, pack.T) == \
            covariant_derivative_oracle(pack.rpt, pack.T)


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_covariant_derivative_matches_oracle_on_other_ranks(rank):
    fa = RANDOM[5]
    conn = rpt_connection(fa).rpt
    t = Tensor(fa.dim, "d" * rank, fa.params,
               [Scalar.constant(fa.params, k % 7 - 3) for k in range(fa.dim ** rank)])
    assert covariant_derivative(fa, conn, t) == covariant_derivative_oracle(conn, t)


def _counted_compose(monkeypatch):
    """The (a, b) of each ``compose`` that ``connections`` calls."""
    import rptgeo.connections as connections
    calls, product = [], connections.compose

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(connections, "compose", counted)
    return calls


@pytest.mark.parametrize("fa", [build_example((1, 2, 3, 5)), SYM, RANDOM[-1]],
                         ids=["family", "symbolic", "conj8"])
@pytest.mark.parametrize("kind, products", [("totally-skew", 1), ("symmetric-pair", 2),
                                            ("generic", 3)])
def test_covariant_derivative_makes_one_product_per_distinct_move(fa, kind, products,
                                                                  monkeypatch):
    # a slot whose move to the front gives t or -t reuses compose(A, t):
    # both moves of a 3-form do, and of a tensor symmetric in its first
    # pair the move of slot 1
    conn, n, rng = rpt_connection(fa).rpt, fa.dim, random.Random(fa.dim)
    generic = Tensor(n, "ddd", fa.params, [Scalar.constant(fa.params, rng.randint(-3, 3))
                                           for _ in range(n ** 3)])
    t = {"totally-skew": alternate(generic, (0, 1, 2)),
         "symmetric-pair": generic + generic.transpose((1, 0, 2)), "generic": generic}[kind]
    calls = _counted_compose(monkeypatch)
    got = covariant_derivative(fa, conn, t)
    assert len(calls) == products and calls[0] == (conn.coeffs, t)
    assert got == covariant_derivative_oracle(conn, t)


def test_the_torsion_derivative_of_a_w3_pack_is_one_product(monkeypatch):
    pack = rpt_connection(adapted_frame(build_example((1, 2, 3, 5))))
    calls = _counted_compose(monkeypatch)
    derivative = pack.torsion_derivative()
    assert len(calls) == 1 and calls[0][1] is pack.T
    assert derivative == covariant_derivative_oracle(pack.rpt, pack.T)


@pytest.mark.parametrize("fa", [build_example((1, 2, 3, 5)), SYM, RANDOM[-1]],
                         ids=["family", "symbolic", "conj8"])
def test_the_products_on_a_skew_pair_multiply_only_its_kept_half(fa, monkeypatch):
    # the torsion products and the bracket term of the curvature multiply a
    # quarter of the full product; the one product of nabla T half of it
    import rptgeo.tensors as tensors
    pack = rpt_connection(fa)
    n, q = fa.dim, fa.dim * (fa.dim - 1) // 2
    low = pack.rpt.coeffs.lower_slot(2, fa.metric)
    up, products = pack.T.raise_slot(2, fa.metric_inv), pack.torsion_products()
    shapes, mul = [], tensors._mul

    def recording(a, b, poly):
        shapes.append((len(a), len(b[0])))
        return mul(a, b, poly)

    monkeypatch.setattr(tensors, "_mul", recording)
    assert compose(up, pack.T.transpose((1, 2, 0))) == products
    compose(fa.brackets, low)
    compose(pack.rpt.coeffs, pack.T)
    assert shapes == [(q, q), (q, q), (n * n, q)]


def test_torsion_inner_products_match_oracle_on_random_frames():
    for fa in RANDOM:
        t = rpt_connection(fa).T
        assert torsion_inner_products(t, fa) == torsion_products_oracle(t, fa)


def test_a_connection_holds_both_forms_and_a_shift_is_a_sum():
    # Levi-Civita, the rpt connection, the canonical connection and the
    # P-connection, in the user's basis and on the adapted frame
    for user in RANDOM:
        for fa in (user, adapted_frame(user)):
            lc, pack = levi_civita(fa), rpt_connection(fa)
            shifts = companion_shifts(fa)
            companions = [_shifted_connection(fa, q) for q in shifts]
            for conn in [lc, pack.rpt] + companions:
                assert (conn.lowered.variance, conn.coeffs.variance) == ("ddd", "ddu")
                assert conn.coeffs.lower_slot(2, fa.metric) == conn.lowered
            assert ConnectionPack(fa, pack.T).rpt.lowered == \
                lc.lowered + pack.T.scale(Fraction(1, 2))
            assert [conn.lowered for conn in companions] == [lc.lowered + q for q in shifts]
    # a connection is built from its lowered form, never from coefficients
    with pytest.raises(ValueError):
        Connection(SYM, levi_civita(SYM).coeffs)


def test_metric_witnesses_of_a_non_metric_connection_match_oracle():
    # Levi-Civita with A^3_12 raised by one: nonzero sums on both sides of j = k
    for fa in RANDOM:
        lc = levi_civita(fa).coeffs
        bumped = Connection(fa, build_tensor(
            fa.dim, "ddu", fa.params, lambda idx: lc[idx] + (1 if idx == (0, 1, 2) else 0)
        ).lower_slot(2, fa.metric))
        witnesses = bumped.metric_witnesses("metric")
        assert witnesses
        assert all(w.expected.is_zero and w.label == "metric" for w in witnesses)
        assert [(w.index, w.actual) for w in witnesses] == \
            [(idx, -value) for idx, value in metric_witness_oracle(bumped)]


# ---------------------------------------------------------------------------
# existence and uniqueness, by solving for the torsion 3-form


def _single_bracket_conjugate(seed):
    return conjugate(single_bracket_frame(), random_unimodular(random.Random(seed), 4, ()))


# W3 frames in dims 4, 6 and 8 (W0 among them), symbolic ones, and frames
# outside the class in dims 4 and 6
EXISTENCE_FRAMES = [
    ("family", lambda: build_example((1, 2, 3, 4))),
    ("single-bracket", single_bracket_frame),
    ("six-dim", six_dim_frame),
    ("symbolic-metric", symbolic_metric_frame),
    ("sheared-family", sheared_family_frame),
    ("single-bracket+plane", lambda: direct_sum(single_bracket_frame(), abelian_plane())),
] + [("single-bracket-conj%d" % k, functools.partial(_single_bracket_conjugate, k))
     for k in range(3)] + [("random-%d" % k, functools.partial(RANDOM.__getitem__, k))
                           for k in range(len(RANDOM))]


@pytest.mark.parametrize("build", [build for _, build in EXISTENCE_FRAMES],
                         ids=[name for name, _ in EXISTENCE_FRAMES])
def test_the_existence_system_is_consistent_exactly_off_the_outside_class(build):
    user = build()
    fa = adapted_frame(user)
    rows, triples = existence_system(fa)
    basis = null_space(rows)
    # the solutions are the null vectors with last entry 1, read at the free
    # last column: one when the system is consistent, none otherwise
    solutions = [v[:-1] for v in basis if not v[-1].is_zero]
    kernel = [v[:-1] for v in basis if v[-1].is_zero]
    label = classify(fa).label
    assert len(solutions) == (label != CLASS_OUTSIDE)
    # the kernel is Lambda^3 V+ + Lambda^3 V-: one unit vector per triple
    # inside one eigenspace of P
    n, half = fa.dim, fa.dim // 2
    inside = [u for u, t in enumerate(triples) if t[-1] < half or t[0] >= half]
    assert len(inside) == 2 * comb(half, 3)
    assert kernel == [[Scalar.constant(fa.params, int(u == w)) for u in range(len(triples))]
                      for w in inside]
    # the solution is 0 on the free unknowns, those triples: it is the paper's
    # torsion, the one natural connection with no Lambda^3 V+ + Lambda^3 V- part
    for x in solutions:
        t = three_form(n, fa.params, dict(zip(triples, x)))
        assert t == rpt_torsion(fundamental_F(fa), fa)
        assert t.is_zero == (label == CLASS_PARALLEL)
    if n <= 6:
        on_user = null_space(existence_system(user)[0])
        assert [v[-1].is_zero for v in on_user].count(False) == len(solutions)
        assert len(on_user) == len(solutions) + len(kernel)


def _infeasibility_certificate(rows, params):
    """y with A^T y = 0 and b^T y = 1 for the system rows = [A | -b], or None
    when A x = b is consistent: the null vector (y, 1) of
    [[A^T | 0], [-b^T | 1]], built from the rows transposed."""
    m = [list(column) + [Scalar.zero(params)] for column in zip(*rows)]
    m[-1][-1] = Scalar.one(params)
    found = [v for v in null_space(m) if not v[-1].is_zero]
    assert len(found) <= 1
    return [x / found[0][-1] for x in found[0][:-1]] if found else None


@pytest.mark.parametrize("build", [build for _, build in EXISTENCE_FRAMES],
                         ids=[name for name, _ in EXISTENCE_FRAMES])
def test_the_existence_system_has_an_infeasibility_certificate_exactly_outside(build):
    fa = adapted_frame(build())
    rows, triples = existence_system(fa)
    y = _infeasibility_certificate(rows, fa.params)
    assert (y is not None) == (classify(fa).label == CLASS_OUTSIDE)
    if y is None:
        return
    # Farkas over a field: A^T y = 0 and b^T y = 1, rechecked by Scalar sums
    zero, one = Scalar.zero(fa.params), Scalar.one(fa.params)
    for u in range(len(triples)):
        assert sum((row[u] * yr for row, yr in zip(rows, y)), zero) == zero
    assert sum((-row[-1] * yr for row, yr in zip(rows, y)), zero) == one
    if build is single_bracket_frame:
        # the certificate is one equation 0 = b_r with b_r != 0
        support = [r for r, yr in enumerate(y) if not yr.is_zero]
        assert len(support) == 1
        assert all(x.is_zero for x in rows[support[0]][:-1])
