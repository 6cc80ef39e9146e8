"""The adapted-frame engine: a basis of P-eigenvectors, the pull-back of
tensors to the user's basis, and the elimination kernel behind both."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from rptgeo import (CLASS_SKEW, Connection, ConnectionPack, FrameAlgebra, Scalar, SchemaError,
                    Tensor, adapted_frame, build_example, change_basis, check_p_tensor,
                    classify, curvature, killing_check, levi_civita, mat_det, mat_identity,
                    natural_check, rpt_connection, row_reduce, run_all, tensors, validate)
from rptgeo.frames import _eigenbasis, bracket_tensor, frame_from_dict, frame_to_dict
from rptgeo.tensors import coefficient_tensor

from helpers import (abelian_plane, conjugate, direct_sum, eigenbasis_oracle,
                     extended_family_frame, family_frame, perm_sign, random_frames,
                     random_unimodular, scaled_family_frame, sheared_family_frame,
                     single_bracket_frame, six_dim_frame, symbolic_metric_frame)

RANDOM = random_frames()


def _forward(af, t: Tensor) -> Tensor:
    """A tensor in the user's basis rewritten on the frame af: through s on a
    covariant slot, through s^-1 on a contravariant one."""
    for slot, v in enumerate(t.variance):
        t = t.map_slot(af.s if v == "d" else af.s_inv, slot)
    return t


def _random_tensor(rng, fa, variance) -> Tensor:
    comps = [Scalar.constant(fa.params, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
             for _ in range(fa.dim ** len(variance))]
    return Tensor(fa.dim, variance, fa.params, comps)


def _entries(results) -> list:
    return [r.as_dict() for r in results]


# ---------------------------------------------------------------------------
# the change of basis


@pytest.mark.parametrize("pos", range(len(RANDOM)))
def test_change_basis_matches_the_conjugation_oracle(pos):
    # s given as rows or as a ud tensor
    fa = RANDOM[pos]
    s = random_unimodular(random.Random(pos), fa.dim, fa.params)
    by_rows, by_tensor = change_basis(fa, s), change_basis(fa, coefficient_tensor(s, "ud"))
    assert by_rows == conjugate(fa, s) == by_tensor
    assert (by_rows.s, by_rows.s_inv) == (by_tensor.s, by_tensor.s_inv)


@pytest.mark.parametrize("s", [lambda fa: coefficient_tensor(fa.g, "dd"),
                               lambda fa: fa.g[:2], lambda fa: mat_identity(4, ("a",))],
                         ids=["dd-tensor", "two-rows", "other-parameters"])
def test_change_basis_names_a_malformed_matrix(s):
    fa = RANDOM[2]
    with pytest.raises(ValueError, match="^change of basis: expected a ud tensor"):
        change_basis(fa, s(fa))


def _line(sign: int, params: tuple = ()) -> FrameAlgebra:
    """The abelian line with the unit metric and P = (sign)."""
    return FrameAlgebra(1, params, bracket_tensor(1, params, {}), [[Scalar.one(params)]],
                        [[Scalar.constant(params, sign)]])


def _su2(params: tuple = ()) -> FrameAlgebra:
    """su(2), [e1, e2] = e3 and cyclically, with the identity metric and P = (++-)."""
    one = Scalar.one(params)
    return FrameAlgebra(3, params, bracket_tensor(3, params, {
        (0, 1): {2: one}, (1, 2): {0: one}, (0, 2): {1: -one}}), mat_identity(3, params),
        [[Scalar.constant(params, sign if i == j else 0) for j in range(3)]
         for i, sign in enumerate((1, 1, -1))])


def _unequal_splits() -> dict:
    """Frames whose P has trace 1 or -1: su(2) (++-), su(2) + R (++-+) and
    su(2) + R^2 (++-+-), each with its number p of +1 eigenvectors, also
    conjugated by a constant matrix and, on su(2) + R, by one in a."""
    a = ("a",)
    shear = [[Scalar.one(a) if i == j else Scalar.parameter(a, "a") if (i, j) == (0, 3)
              else Scalar.zero(a) for j in range(4)] for i in range(4)]
    frames = {"su2": (_su2(), 2), "su2+R": (direct_sum(_su2(), _line(1)), 3),
              "su2+R2": (direct_sum(direct_sum(_su2(), _line(1)), _line(-1)), 3)}
    for name, (fa, p) in list(frames.items()):
        s = random_unimodular(random.Random(fa.dim), fa.dim, ())
        frames[name + "-conjugated"] = (conjugate(fa, s), p)
    frames["su2+R-sheared"] = (conjugate(direct_sum(_su2(a), _line(1, a)), shear), 3)
    return frames


UNEQUAL = _unequal_splits()


def _built():
    """A frame from every frame constructor of tests/helpers.py, and the
    frames of unequal split."""
    params5 = ("l1", "l2", "l3", "l4", "s")
    lam = [Scalar.parameter(params5, name) for name in params5]
    at = [Scalar.constant(params5, v) for v in (1, 2, 3, Fraction(1, 2))]
    return RANDOM + [
        family_frame(lam[:4], params5), extended_family_frame(*lam, params5),
        extended_family_frame(*at, lam[4] * Fraction(1, 2), params5),
        symbolic_metric_frame(), sheared_family_frame(), scaled_family_frame(),
        abelian_plane(), abelian_plane(("a",)), six_dim_frame(), single_bracket_frame(),
        direct_sum(build_example((1, 2, 3, 5)), abelian_plane()),
        # a P over the denominator 6
        conjugate(build_example((1, 2, 3, 5)), [[Scalar.constant((), x) for x in row] for row in
                                                [[2, 0, 0, 1], [0, 1, 0, 0], [0, 0, 3, 0],
                                                 [0, 1, 0, 1]]])] + [fa for fa, _ in UNEQUAL.values()]


BUILT = _built()


@pytest.mark.parametrize("pos", range(len(BUILT)))
def test_the_eigenbasis_is_the_pivot_or_null_space_basis(pos):
    fa = BUILT[pos]
    s = _eigenbasis(fa)
    assert (s.variance, s.params) == ("ud", fa.params)
    assert s == coefficient_tensor(eigenbasis_oracle(fa), "ud")


@pytest.mark.parametrize("pos", range(len(RANDOM)))
def test_adapted_frame_splits_the_product_structure(pos):
    fa = RANDOM[pos]
    af = adapted_frame(fa)
    n, half = fa.dim, fa.dim // 2
    one, zero = Scalar.one(fa.params), Scalar.zero(fa.params)
    assert af.p == [[(one if i < half else -one) if i == j else zero
                     for j in range(n)] for i in range(n)]
    # P is g-orthogonal, so its eigenspaces are g-orthogonal
    assert all(af.g[i][j].is_zero for i in range(half) for j in range(half, n))
    assert all(af.g[j][i].is_zero for i in range(half) for j in range(half, n))
    assert af.user is fa and adapted_frame(fa) is af
    rng = random.Random(pos)
    for variance in ("ddu", "dud"):
        t = _random_tensor(rng, fa, variance)
        assert af.to_user(_forward(af, t)) == t


@pytest.mark.parametrize("name", list(UNEQUAL))
def test_an_unequal_split_is_read_from_the_trace_of_the_product(name):
    # only the trace axiom of validate fails, and it alone fails run_all on
    # the adapted frame, P = diag(I_p, -I_q) with p = (n + trace P) / 2
    fa, p = UNEQUAL[name]
    n = fa.dim
    assert classify(fa).label == CLASS_SKEW
    assert [w.label for w in validate(fa).witnesses] == ["product-traceless"]
    af = adapted_frame(fa)
    assert af.product == Tensor.of_ints(n, "ud", fa.params, [
        (1 if i < p else -1) if i == j else 0 for i in range(n) for j in range(n)])
    assert [r.id for r in run_all(af) if not r.passed] == ["frame-structure"]
    # a spec keeps its even dimension
    if n % 2:
        with pytest.raises(SchemaError, match="^dimension: expected a positive even integer"):
            frame_from_dict(frame_to_dict(fa))
    else:
        assert frame_from_dict(frame_to_dict(fa)) == fa


@pytest.mark.parametrize("entries, message", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], r"\(n \+ trace P\) / 2 is 5/2, no count"),
    ([["a", 0, 0], [0, 1, 0], [0, 0, -1]], r"\(n \+ trace P\) / 2 is not a constant"),
    # I + P and I - P of rank 4 and 2
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
     r"not an involution: 4 \+ 2 eigenvector columns for \+1 and -1, not 4"),
    # a Jordan block: one eigenvector, for +1
    ([[1, "a"], [0, 1]], r"not an involution: 1 \+ 0 eigenvector columns for \+1 and -1, not 2"),
])
def test_adapted_frame_refuses_a_product_that_is_no_involution(entries, message):
    # the abelian frame with the identity metric and P = entries
    n = len(entries)
    params = ("a",) if "a" in str(entries) else ()
    p = [[Scalar.parameter(params, x) if x == "a" else Scalar.constant(params, x) for x in row]
         for row in entries]
    fa = FrameAlgebra(n, params, bracket_tensor(n, params, {}), mat_identity(n, params), p)
    with pytest.raises(ValueError, match=message):
        adapted_frame(fa)


def test_constant_frames_move_without_scalar_matrix_arithmetic(monkeypatch):
    # the change of basis and the Killing pairing are slot maps on the
    # tensor kernel: no Scalar + - * / (and no Scalar matrix product, which
    # tests/test_imports.py keeps inside tensors.py)
    fresh = [fa for fa in random_frames() if not fa.params]
    calls = []

    def counting(name):
        op = getattr(Scalar, name)
        return lambda a, b: calls.append(name) or op(a, b)

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Scalar, name, counting(name))
    for fa in fresh:
        af = adapted_frame(fa)
        killing_check(fa)
        assert af.p[0][0] == 1
    assert calls == []


def test_constant_set_up_builds_scalars_only_for_the_product_view(monkeypatch):
    # frames whose tensors hold ints and no Scalar view: the eigenbasis, the
    # change of basis and metric_inv build no Scalar, and validate builds one
    # view, fa.p, which its map_slot calls read as rows
    fresh = [fa.substitute({}) for fa in RANDOM + [six_dim_frame(), single_bracket_frame(),
                                                   abelian_plane()] if not fa.params]
    views, made = [], []
    view, constant = tensors._scalars, Scalar._of_value
    monkeypatch.setattr(tensors, "_scalars",
                        lambda nums, den, params: views.append(nums) or view(nums, den, params))
    monkeypatch.setattr(Scalar, "_of_value", classmethod(
        lambda cls, params, value: made.append(value) or constant(params, value)))
    assert len(fresh) == 22
    for fa in fresh:
        af = adapted_frame(fa)
        assert fa.metric_inv.ints and af.product.ints
        assert (views, made) == ([], [])
        assert validate(fa).passed
        assert [id(nums) for nums in views] == [id(fa.product.ints[0])]
        views.clear()
        made.clear()


@pytest.mark.parametrize("make", [sheared_family_frame, symbolic_metric_frame])
def test_a_parametric_product_keeps_its_parameter_out_of_the_adapted_metric(make):
    # both frames have identity metric and swap product before a conjugation
    # by a matrix in a; the null-space eigenbasis undoes the conjugation,
    # where the projector columns would leave a in the metric and brackets
    fa = make()
    assert any(not x.is_constant for row in fa.p for x in row)
    af = adapted_frame(fa)
    two = Scalar.constant(fa.params, 2)
    assert af.g == [[two if i == j else Scalar.zero(fa.params) for j in range(4)]
                    for i in range(4)]


def test_the_sheared_family_is_a_spec():
    fa = sheared_family_frame()
    assert frame_from_dict(frame_to_dict(fa)) == fa


# ---------------------------------------------------------------------------
# the same verdicts and witnesses in either basis


def _agreement_frames():
    four = [fa for fa in RANDOM if fa.dim == 4 and not fa.params]
    return four + [six_dim_frame(), single_bracket_frame(), symbolic_metric_frame(),
                   sheared_family_frame()]


@pytest.mark.parametrize("pos", range(len(_agreement_frames())))
def test_run_all_agrees_between_the_bases(pos):
    fa = _agreement_frames()[pos]
    af = adapted_frame(fa)
    assert _entries(run_all(af)) == _entries(run_all(fa))
    assert curvature(levi_civita(af))[2] == curvature(levi_civita(fa))[2]


def test_failing_tensor_checks_report_user_basis_witnesses():
    fa = six_dim_frame()
    af = adapted_frame(fa)
    # the Levi-Civita curvature here is not invariant under P in its last pair
    r = curvature(levi_civita(fa))[0]
    user = check_p_tensor(r, fa)
    assert not user.passed
    assert check_p_tensor(_forward(af, r), af).as_dict() == user.as_dict()

    bump = [0] * fa.dim ** 3
    bump[(0 * fa.dim + 1) * fa.dim + 2] = 1
    bump = Tensor(fa.dim, "ddu", (), [Scalar.constant((), v) for v in bump])
    low = (levi_civita(fa).coeffs + bump).lower_slot(2, fa.metric)
    user = Connection(fa, low).metric_witnesses("metric")
    assert user
    adapted = Connection(af, _forward(af, low)).metric_witnesses("metric")
    assert [w.as_dict() for w in adapted] == [w.as_dict() for w in user]


# ---------------------------------------------------------------------------
# the elimination kernel


def _matrix(rows):
    return [[Scalar.constant((), Fraction(x)) for x in row] for row in rows]


def test_row_reduce_on_a_singular_matrix():
    # column 1 is twice column 0, and row 2 is row 0 plus row 1
    m = _matrix([[0, 0, 1], [1, 2, 3], [1, 2, 4]])
    rref, pivots, minors, swaps = row_reduce(m)
    assert pivots == [0, 2]  # rank 2
    assert swaps == 1  # row 1 moves up to the first pivot
    assert [str(v) for v in minors] == ["1", "1"]
    assert rref == _matrix([[1, 2, 0], [0, 0, 1], [0, 0, 0]])
    assert mat_det(m).is_zero


def test_row_reduce_on_a_rectangular_matrix():
    m = _matrix([[0, 2, 4, 2], [3, 0, 3, 6]])
    rref, pivots, minors, swaps = row_reduce(m)
    assert (pivots, swaps) == ([0, 1], 1)
    assert [str(v) for v in minors] == ["3", "6"]
    assert rref == _matrix([[1, 0, 1, 2], [0, 1, 2, 1]])
    # the determinant is the signed pivot product when every column pivots
    assert mat_det(_matrix([[0, 2], [3, 1]])) == Scalar.constant((), -6)
    assert mat_det(mat_identity(3, ())) == Scalar.one(())


# ---------------------------------------------------------------------------
# the paper's skew-torsion connection is one of an affine family once n >= 6


def test_a_three_form_on_one_eigenspace_keeps_the_connection_natural():
    # in the adapted frame V+ is spanned by the first n/2 = 3 basis vectors,
    # so e^123 is a 3-form on V+ alone
    af = adapted_frame(six_dim_frame())
    pack = rpt_connection(af)
    # the paper's torsion has no part on a single eigenspace
    assert all(pack.T[idx].is_zero for idx in pack.T.indices()
               if len({k < 3 for k in idx}) == 1)
    comps = [Scalar.zero(())] * 6 ** 3
    for perm in itertools.permutations(range(3)):
        comps[(perm[0] * 6 + perm[1]) * 6 + perm[2]] = Scalar.constant((), perm_sign(perm))
    torsion = pack.T + Tensor(6, "ddd", (), comps)
    conn = ConnectionPack(af, torsion).rpt
    assert natural_check("natural-connection", af, conn).passed
    assert conn.torsion_tensor() == torsion
    assert conn.coeffs != pack.rpt.coeffs
