"""Tensor algebra: contraction, cyclic sums, alternation, matrices."""

import functools
import itertools
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rptgeo import (Scalar, Tensor, adapted_frame, arranged, build_example, compose,
                    cyclic_sum, fundamental_F, mat_det, mat_identity, mat_inv, mat_mul,
                    null_space, parse_expression, row_reduce, run_all, square_norm,
                    tensor_contract)
import rptgeo.tensors as tensors_module
from rptgeo.frames import _moved
from rptgeo.scalars import _canonical_assoc, _is_const, _poly_gcd
from rptgeo.tensors import (_GATHERS, _mul, _rows, coefficient_tensor, contract_all,
                            leading_minors, pivot_columns)

from helpers import (alternate, arranged_oracle, build_tensor, change_of_basis_oracle,
                     compose_oracle, contract_oracle, cyclic_sum_oracle, elementwise_oracle,
                     map_slot_oracle, mat_mul_oracle, random_frames, row_reduce_oracle,
                     scaled_family_frame, sheared_family_frame, six_dim_frame,
                     slot_change_oracle, dict_eval, substitute_oracle, symbolic_metric_frame,
                     transpose_oracle)

PARAMS = ("l1", "l2", "l3", "l4")
DIM = 4


def C(v):
    return Scalar.constant(PARAMS, v)


def tensor_from_ints(variance, values):
    return Tensor(DIM, variance, PARAMS, [C(v) for v in values])


small_tensors3 = st.lists(st.integers(-3, 3), min_size=DIM ** 3, max_size=DIM ** 3) \
    .map(lambda vals: tensor_from_ints("ddd", vals))


def test_trace_of_identity_is_dim():
    ident = build_tensor(DIM, "ud", PARAMS,
                         lambda idx: C(1 if idx[0] == idx[1] else 0))
    out = tensor_contract(ident, 0, 1)
    assert out.rank == 0
    assert out[()] == C(DIM)


def test_contract_requires_metric_for_equal_variance():
    t = tensor_from_ints("dd", range(16))
    with pytest.raises(ValueError, match="metric"):
        tensor_contract(t, 0, 1)


def test_contract_rejects_metric_for_mixed_variance():
    ident = build_tensor(DIM, "ud", PARAMS,
                         lambda idx: C(1 if idx[0] == idx[1] else 0))
    with pytest.raises(ValueError):
        tensor_contract(ident, 0, 1, mat_identity(DIM, PARAMS))


def test_contract_with_metric_matches_manual_sum():
    t = tensor_from_ints("dd", [((i + 1) * (j + 2)) % 7 for i in range(DIM)
                                for j in range(DIM)])
    g = mat_identity(DIM, PARAMS)
    out = tensor_contract(t, 0, 1, g)
    manual = sum((t[i, i] for i in range(DIM)), Scalar.zero(PARAMS))
    assert out[()] == manual


def test_contract_pairs_the_metric_row_with_the_first_slot_given():
    # metric[p][q] pairs p at slot_a with q at slot_b, in either slot order
    t = Tensor(2, "ddud", (), [Scalar.constant((), int(k == 11)) for k in range(16)])
    m = [[Scalar.constant((), v) for v in row] for row in ([0, 0], [1, 0])]
    assert t[1, 0, 1, 1] == 1
    assert tensor_contract(t, 1, 0, m) == contract_oracle(t, 1, 0, m)
    assert tensor_contract(t, 1, 0, m).is_zero
    assert tensor_contract(t, 0, 1, m) == contract_oracle(t, 0, 1, m)
    assert [str(x) for x in tensor_contract(t, 0, 1, m).comps] == ["0", "0", "0", "1"]


def test_indexing_takes_one_in_range_index_per_slot():
    t = tensor_from_ints("ddu", range(64))
    assert t[0, 1, 2] == C(6)
    for idx in ((0, 1), 1, (0, 0, 4), (0, -1, 0), (0, 0, 0, 0)):
        with pytest.raises(IndexError):
            t[idx]


def test_transpose_semantics():
    t = tensor_from_ints("ddd", range(64))
    swapped = t.transpose((1, 0, 2))
    for idx in t.indices():
        i, j, k = idx
        assert swapped[i, j, k] == t[j, i, k]


@pytest.mark.parametrize("variance", ["udd", "duud"])
def test_transpose_matches_explicit_indices(variance):
    n = 3
    t = Tensor(n, variance, PARAMS, [C(v) for v in range(n ** len(variance))])
    for perm in itertools.permutations(range(t.rank)):
        out = t.transpose(perm)
        # input slot k receives output argument perm[k]
        assert all(out.variance[perm[k]] == variance[k] for k in range(t.rank))
        for idx in out.indices():
            assert out[idx] == t[tuple(idx[p] for p in perm)]


A = Scalar.parameter(PARAMS, "l1")


def _both_forms(dim, variance, seed):
    """One tensor of each storage form, int and parametric, of one shape."""
    rng = random.Random(seed)
    size = dim ** len(variance)
    ints = Tensor(dim, variance, PARAMS, [C(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                                          for _ in range(size)])
    polys = Tensor(dim, variance, PARAMS, [(A * rng.randint(-3, 3) + rng.randint(-3, 3))
                                           / (A + 2) for _ in range(size)])
    assert ints.ints is not None and polys.ints is None
    return ints, polys


@pytest.mark.parametrize("dim, variance", [(DIM, ""), (DIM, "u"), (DIM, "d"),
                                           (1, "d"), (1, "udd"), (1, "")])
def test_transpose_of_one_component_or_one_slot_matches_the_oracle(dim, variance):
    for t in _both_forms(dim, variance, seed=len(variance)):
        for perm in itertools.permutations(range(t.rank)):
            got = t.transpose(perm)
            _assert_matches(got, transpose_oracle(t, perm))
            # a table of one offset still gathers into a fresh list
            nums, _ = got._values()
            assert type(nums) is list and nums is not t._values()[0]


def test_one_gather_serves_both_forms_independently():
    perm = (2, 0, 1)
    ints, polys = _both_forms(3, "ddu", seed=7)
    first = ints.transpose(perm)
    second = polys.transpose(perm)
    _assert_matches(first, transpose_oracle(ints, perm))
    _assert_matches(second, transpose_oracle(polys, perm))
    assert first.ints is not None and second.ints is None
    # the int result is untouched by the parametric one made after it
    _assert_matches(first, transpose_oracle(ints, perm))
    assert first.transpose((1, 2, 0)) == ints


def test_fifty_transposes_of_one_shape_add_one_gather():
    dim, perm = 5, (2, 0, 1)
    Tensor.zeros(dim, "ddd", PARAMS).transpose((0, 1, 2))  # the size's offsets exist
    _GATHERS.pop((dim, perm), None)  # an earlier test may have made this gather
    before = len(_GATHERS)
    for k in range(50):
        t = Tensor(dim, "ddu", PARAMS, [C(k - v) for v in range(dim ** 3)])
        assert t.transpose(perm)[1, 2, 3] == t[3, 1, 2]
    assert len(_GATHERS) == before + 1 and (dim, perm) in _GATHERS


def test_transpose_refuses_what_is_not_a_permutation_of_its_slots():
    t = tensor_from_ints("ddu", range(64))
    tensor_from_ints("dd", range(16)).transpose((1, 0))  # a gather of another rank
    for perm in ((1, 0), (0, 1, 1), (0, 1, 3), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match="permutation"):
            t.transpose(perm)


# diagonal entries for map_slot: 1 copies, -1 negates, and zero, a constant
# or a parameter multiplies
DIAGONALS = [(C(1), C(-1), C(0)), (C(2), C(Fraction(1, 3)), A)]


def _mixed_tensor(n, variance):
    return Tensor(n, variance, PARAMS, [C(k % 5 - 2) if k % 3 else A + C(k)
                                        for k in range(n ** len(variance))])


def _diagonal(entries):
    zero = Scalar.zero(PARAMS)
    return [[d if i == j else zero for j in range(len(entries))]
            for i, d in enumerate(entries)]


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("entries", DIAGONALS, ids=["units-and-zero", "scales"])
def test_map_slot_with_a_diagonal_matches_the_dense_oracle(rank, entries):
    m = _diagonal(entries)
    for variance in ("d" * rank, "u" + "d" * (rank - 1)):
        t = _mixed_tensor(3, variance)
        for slot in range(rank):
            assert t.map_slot(m, slot) == map_slot_oracle(t, m, slot)


def test_map_slot_with_a_dense_matrix_matches_the_oracle():
    zero, one = Scalar.zero(PARAMS), Scalar.one(PARAMS)
    m = [[zero, one, A], [one, zero, zero], [C(2), zero, -one]]
    for variance in ("udd", "dud", "u", "d", "du", "uddu"):
        t = _mixed_tensor(3, variance)
        for slot in range(len(variance)):
            assert t.map_slot(m, slot) == map_slot_oracle(t, m, slot)


def _matrix(rows, cols, seed):
    """rows x cols entries: zeros, constants and a parameter, with the second
    row and the second column all zero where they exist."""
    return [[C(0) if 1 in (i, j) or (i + j + seed) % 4 == 0 else
             A + C(i - j) if (i * cols + j + seed) % 5 == 0 else C(i * cols + j - seed)
             for j in range(cols)] for i in range(rows)]


def _zero_heavy(rows, cols, seed):
    """rows x cols entries, zero but for every fifth, which alternates between
    a parametric and a constant entry."""
    return [[C(0) if (i * cols + j + seed) % 5 else
             A * C(j + 1) if (i + j) % 2 else C(Fraction(i - j - 1, 3))
             for j in range(cols)] for i in range(rows)]


def _constants(rows, cols, seed):
    """rows x cols constants with zeros, ints and a Fraction."""
    return [[C(Fraction((i * cols + j + seed) % 4 - 1, 1 + (i + j) % 2))
             for j in range(cols)] for i in range(rows)]


@pytest.mark.parametrize("n, k, m", [(1, 1, 1), (3, 3, 3), (2, 4, 3), (4, 2, 5),
                                     (0, 3, 2), (3, 2, 0), (1, 5, 1)])
def test_mat_mul_matches_the_index_loop(n, k, m):
    # mixed, zero-heavy, and a constant operand next to a parametric one
    for a, b in ((_matrix(n, k, 1), _matrix(k, m, 2)),
                 (_zero_heavy(n, k, 0), _zero_heavy(k, m, 3)),
                 (_constants(n, k, 1), _matrix(k, m, 2)),
                 (_zero_heavy(n, k, 2), _constants(k, m, 0))):
        product = mat_mul(a, b)
        assert len(product) == n and all(len(row) == m for row in product)
        assert product == mat_mul_oracle(a, b, PARAMS)


# constants: ints with zeros and negatives, and Fractions over distinct primes
constants = st.one_of(st.integers(-6, 6), st.sampled_from([0, 0, 1, -1]),
                      st.builds(Fraction, st.integers(-9, 9),
                                st.sampled_from([2, 3, 5, 7, 11, 13])))
shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 5), st.just(1)),   # 1 x k . k x 1
    st.tuples(st.integers(1, 5), st.just(1), st.integers(1, 5)),  # k x 1 . 1 x m
    st.sampled_from([(0, 3, 2), (3, 2, 0)]),
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))


def _constant_matrix(data, params, rows, cols):
    return [[Scalar.constant(params, data.draw(constants)) for _ in range(cols)]
            for _ in range(rows)]


@pytest.mark.parametrize("params", [(), PARAMS], ids=["empty-context", "PARAMS"])
@settings(max_examples=60, deadline=None)
@given(shape=shapes, data=st.data())
def test_mat_mul_of_constants_matches_the_index_loop(params, shape, data):
    n, k, m = shape
    a = _constant_matrix(data, params, n, k)
    b = _constant_matrix(data, params, k, m)
    product = mat_mul(a, b)
    assert len(product) == n and all(len(row) == m for row in product)
    assert product == mat_mul_oracle(a, b, params)
    assert all(x.params == params for row in product for x in row)


def test_mat_mul_of_constants_makes_no_scalar_multiplication(monkeypatch):
    a = [[C(Fraction(1, 2)), C(0), C(-3)], [C(Fraction(-2, 7)), C(5), C(Fraction(1, 3))]]
    b = [[C(1), C(Fraction(3, 11))], [C(0), C(-1)], [C(Fraction(5, 2)), C(0)]]
    expected = mat_mul_oracle(a, b, PARAMS)
    t = tensor_from_ints("du", [k % 7 - 3 for k in range(DIM ** 2)]).scale(Fraction(1, 6))
    s = tensor_from_ints("dd", [k % 5 - 2 for k in range(DIM ** 2)])
    composed = compose_oracle(t, s)

    def refuse(self, other):
        raise AssertionError("Scalar multiplication in a product of constants")

    monkeypatch.setattr(Scalar, "__mul__", refuse)
    monkeypatch.setattr(Scalar, "__rmul__", refuse)
    assert mat_mul(a, b) == expected
    assert compose(t, s) == composed


@pytest.mark.parametrize("left, right", [(PARAMS, ()), ((), PARAMS)])
def test_mat_mul_of_constants_from_two_contexts_is_refused(left, right):
    a = [[Scalar.constant(left, 2), Scalar.constant(left, Fraction(1, 3))]]
    b = [[Scalar.constant(right, 5)], [Scalar.constant(right, -1)]]
    with pytest.raises(ValueError, match="different parameter contexts"):
        mat_mul(a, b)


@pytest.mark.parametrize("left, right", [("u", "d"), ("du", "d"), ("u", "dd"),
                                         ("ddu", "ddd"), ("udu", "dud"), ("du", "du")])
def test_compose_matches_the_index_loop(left, right):
    a, b = _mixed_tensor(3, left), _mixed_tensor(3, right).scale(2)
    out = compose(a, b)
    assert out.variance == left[:-1] + right[1:]
    assert out == compose_oracle(a, b)


@pytest.mark.parametrize("left, right", [("dd", "dd"), ("uu", "uu"), ("ud", "du")])
def test_compose_needs_a_vector_slot_then_a_covector_slot(left, right):
    with pytest.raises(ValueError, match="vector slot"):
        compose(_mixed_tensor(3, left), _mixed_tensor(3, right))


def test_compose_needs_one_dimension():
    with pytest.raises(ValueError, match="dimension"):
        compose(_mixed_tensor(3, "u"), _mixed_tensor(2, "d"))


# compose on operands skew in a pair: a in its first two slots, which index
# the rows of the product, and b in its last two, which index the columns
SKEW_LEFT = {2: "du", 3: "ddu", 4: "dddu"}
SKEW_RIGHT = {2: "dd", 3: "duu"}


def _pair_swap(rank, p):
    """The permutation of rank slots that swaps slots p and p + 1."""
    perm = list(range(rank))
    perm[p], perm[p + 1] = p + 1, p
    return tuple(perm)


def _skew_operand(dim, variance, pair, poly, rng, zeros=0.3):
    """Random entries, ints or int polynomials in A, a share of them zero;
    for a pair p, t minus t with slots p and p + 1 swapped."""
    def entry():
        x = C(0 if rng.random() < zeros else rng.randint(-3, 3))
        return A * rng.randint(-2, 2) + x if poly else x

    t = Tensor(dim, variance, PARAMS, [entry() for _ in range(dim ** len(variance))])
    return t if pair is None else t - t.transpose(_pair_swap(t.rank, pair))


def _is_skew(t, pair):
    """Whether t changes sign when slots pair and pair + 1 swap, entry by entry."""
    swapped = transpose_oracle(t, _pair_swap(t.rank, pair))
    return all((x + y).is_zero for x, y in zip(t.comps, swapped.comps))


def _kept(dim, slots, skew):
    """How many of the dim ** slots rows (or columns) compose multiplies,
    with or without a skew pair among those slots."""
    return dim * (dim - 1) // 2 * dim ** (slots - 2) if skew else dim ** slots


def _composed_shapes(a, b):
    """compose(a, b) and the (rows, width) of each product ``_mul`` ran."""
    shapes, mul = [], tensors_module._mul

    def recording(x, y, poly):
        shapes.append((len(x), len(y[0]) if y else 0))
        return mul(x, y, poly)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensors_module, "_mul", recording)
        out = compose(a, b)
    return out, shapes


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 4, 5]), ra=st.integers(2, 4), rb=st.integers(2, 3),
       rows=st.booleans(), cols=st.booleans(), poly=st.booleans(), cancel=st.booleans(),
       zeros=st.sampled_from([0.0, 0.3, 0.8, 1.0]), seed=st.integers(0, 2 ** 16))
def test_compose_of_skew_operands_matches_the_oracle(dim, ra, rb, rows, cols, poly, cancel,
                                                     zeros, seed):
    # rows and columns skew, one of them or neither; with cancel the
    # product's numerators share a factor with its denominator, which the
    # kept block cancels once
    assume(dim < 5 or ra + rb < 7 or not poly)
    rng = random.Random(seed)
    a = _skew_operand(dim, SKEW_LEFT[ra], 0 if rows and ra > 2 else None, poly, rng, zeros)
    b = _skew_operand(dim, SKEW_RIGHT[rb], rb - 2 if cols and rb > 2 else None, poly, rng,
                      zeros)
    if cancel:
        factor = A + 2 if poly else C(3)
        a, b = a.scale(1 / factor), b.scale(factor)
    out, shapes = _composed_shapes(a, b)
    expected = compose_oracle(a, b)
    assert out == expected and out.comps == expected.comps
    _assert_canonical(out)
    skew_rows = ra > 2 and _is_skew(a, 0)
    skew_cols = rb > 2 and _is_skew(b, rb - 2)
    assert shapes == [(_kept(dim, ra - 1, skew_rows), _kept(dim, rb - 1, skew_cols))]


def _first_nonzero(t):
    return next(k for k, x in enumerate(t.comps) if not x.is_zero)


def _mirror(t, off, pair):
    idx = list(list(itertools.product(range(t.dim), repeat=t.rank))[off])
    idx[pair], idx[pair + 1] = idx[pair + 1], idx[pair]
    return t._offset(tuple(idx))


def _off_by_one(t, off):
    comps = list(t.comps)
    comps[off] = comps[off] + C(1)
    return Tensor(t.dim, t.variance, t.params, comps)


@pytest.mark.parametrize("dim", [2, 4, 5])
@pytest.mark.parametrize("poly", [False, True], ids=["ints", "polys"])
@pytest.mark.parametrize("side", ["rows", "columns"])
@pytest.mark.parametrize("entry", ["first-mirror", "last-mirror", "diagonal"])
def test_an_almost_skew_operand_takes_the_full_product(dim, poly, side, entry):
    # one entry off: the mirror of the first nonzero entry, which refuses at
    # once, the last mirror, which only the full test sees, or a diagonal one
    rng = random.Random(dim)
    pair = 0 if side == "rows" else 1
    t = _skew_operand(dim, "ddu" if side == "rows" else "duu", pair, poly, rng)
    mirror = _mirror(t, _first_nonzero(t), pair)
    last = max(k for k, idx in enumerate(itertools.product(range(dim), repeat=3))
               if idx[pair] > idx[pair + 1] and k != mirror)
    off = {"first-mirror": mirror, "last-mirror": last,
           "diagonal": t._offset((1, 1, 0) if side == "rows" else (0, 1, 1))}[entry]
    bent = _off_by_one(t, off)
    assert _is_skew(t, pair) and not _is_skew(bent, pair)
    a, b = (bent, _skew_operand(dim, "dd", None, poly, rng)) if side == "rows" else \
        (_skew_operand(dim, "du", None, poly, rng), bent)
    out, shapes = _composed_shapes(a, b)
    assert out == compose_oracle(a, b)
    assert shapes == [(dim ** (a.rank - 1), dim ** (b.rank - 1))]


def test_signs_on_the_diagonal_make_no_multiplication(monkeypatch):
    p = _diagonal((C(1), C(-1), C(-1)))
    t = _mixed_tensor(3, "ddu")
    expected = [map_slot_oracle(t, p, slot) for slot in range(3)]
    arranged_expected = arranged(t, "Pz,x,Py", p)

    def refuse(self, other):
        raise AssertionError("Scalar multiplication on a +-1 diagonal")

    monkeypatch.setattr(Scalar, "__mul__", refuse)
    monkeypatch.setattr(Scalar, "__rmul__", refuse)
    assert [t.map_slot(p, slot) for slot in range(3)] == expected
    assert arranged(t, "Pz,x,Py", p) == arranged_expected


def _swap(i):
    return (i + 2) % 4, 1  # block swap in dimension four


def _signs(i):
    return i, (1 if i < 2 else -1)  # diag(1, 1, -1, -1)


@pytest.mark.parametrize("apply_p", [_swap, _signs], ids=["swap", "diag"])
def test_arranged_matches_manual_loops(apply_p):
    t = tensor_from_ints("ddd", [((2 * i - j + 3 * k) % 5) for i in range(DIM)
                                 for j in range(DIM) for k in range(DIM)])
    # P e_i = sign * e_image, so row image, column i of P holds the sign
    p = [[C(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        image, sign = apply_p(i)
        p[image][i] = C(sign)
    got = arranged(t, "Pz,x,Py", p)

    for idx in t.indices():
        x, y, z = idx
        (pz, sz), (py, sy) = apply_p(z), apply_p(y)
        assert got[x, y, z] == t[pz, x, py] * C(sz * sy)


# matrices for arranged: diagonals of 1 and -1, which arranged reads as one
# signed gather (diag(I, -I) as on an adapted frame, alternating, all +1,
# all -1), and two it maps slot by slot: a diagonal with other entries and
# a dense P with a parameter
SIGN_DIAGONALS = {"adapted": (1, 1, -1, -1), "alternating": (1, -1, 1, -1),
                  "plus": (1, 1, 1, 1), "minus": (-1, -1, -1, -1)}
PRODUCT_MATRICES = {
    "scales": _diagonal((C(2), C(-1), C(Fraction(1, 3)), C(1))),
    "dense": [[C(0), C(1), A, C(0)], [C(1), C(0), C(0), C(2)],
              [C(0), C(-1), C(1), C(0)], [C(3), C(0), C(0), -A]]}
MATRICES = dict({name: _diagonal([C(x) for x in signs])
                 for name, signs in SIGN_DIAGONALS.items()}, **PRODUCT_MATRICES)
# mixed variances, so a dense P meets both a vector and a covector slot
ARRANGED_VARIANCES = {1: "u", 2: "du", 3: "dud", 4: "uddu"}


def _patterns(rank):
    """(perm, P slots, pattern) for every pattern of the rank: each order of
    the arguments, each set of them under P.  The argument at position k
    names output slot perm[k]."""
    names = "xyzw"
    for perm in itertools.permutations(range(rank)):
        for flags in itertools.product(("", "P"), repeat=rank):
            yield (perm, tuple(k for k, f in enumerate(flags) if f),
                   ",".join(f + names[v] for f, v in zip(flags, perm)))


def _signed_keys():
    return {key for key in _GATHERS if type(key) is tuple and len(key) == 4}


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(MATRICES))
def test_arranged_matches_the_slot_map_and_transpose_oracles(rank, name):
    rows = MATRICES[name]
    product = coefficient_tensor(rows, "ud")
    signs = SIGN_DIAGONALS.get(name)
    ints, _ = _both_forms(DIM, ARRANGED_VARIANCES[rank], seed=rank)
    # polynomial entries keep the oracle's Scalars cheap: one den, no gcd
    polys = Tensor(DIM, ints.variance, PARAMS, [A * (k % 7 - 3) + C(k % 5 - 2)
                                                for k in range(DIM ** rank)])
    for t in (ints, polys):
        mapped = {(): t}

        def oracle(slots):
            """t with the slots mapped by P, one oracle slot map at a time."""
            if slots not in mapped:
                mapped[slots] = map_slot_oracle(oracle(slots[:-1]), rows, slots[-1])
            return mapped[slots]

        for perm, slots, pattern in _patterns(rank):
            # the product path maps the P slots and transposes in one pass,
            # so at rank 4 two orders of the arguments, with every set of P
            # slots, cover it
            if signs is None and rank == 4 and perm not in ((0, 1, 2, 3), (3, 0, 2, 1)):
                continue
            before = _signed_keys()
            # == compares shape, context and the canonical numerators
            assert arranged(t, pattern, product) == transpose_oracle(oracle(slots), perm)
            if signs is None:
                assert _signed_keys() == before, "%s took the signed gather" % pattern
            elif slots:
                assert (DIM, perm, slots, signs) in _GATHERS


def _symmetric(seed):
    """A symmetric 4 x 4 matrix of constants and a parameter."""
    rng = random.Random(seed)
    m = [[None] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i, DIM):
            m[i][j] = m[j][i] = A * rng.randint(-1, 1) + C(Fraction(rng.randint(-3, 3), 2))
    return m


@pytest.mark.parametrize("name", list(MATRICES) + ["symmetric", "identity"])
def test_a_tensor_matrix_acts_as_its_nested_rows(name):
    rows = {"symmetric": _symmetric(3), "identity": mat_identity(DIM, PARAMS)}.get(name) \
        or MATRICES[name]
    for variance in ("dd", "uu"):
        m = coefficient_tensor(rows, variance)
        for t in _both_forms(DIM, "udu", seed=11):
            for slot, v in enumerate(t.variance):
                assert t.map_slot(m, slot) == t.map_slot(rows, slot)
                if v == "u":
                    assert t.lower_slot(slot, m) == t.lower_slot(slot, rows)
                else:
                    assert t.raise_slot(slot, m) == t.raise_slot(slot, rows)
            assert tensor_contract(t, 0, 2, m) == tensor_contract(t, 0, 2, rows) == \
                contract_oracle(t, 0, 2, rows)
            assert arranged(t, "Pz,x,Py", m) == arranged(t, "Pz,x,Py", rows)


@pytest.mark.parametrize("variance", ["du", "ud", "udu"])
def test_the_identity_pairing_matches_the_oracle(variance):
    for t in _both_forms(DIM, variance, seed=len(variance)):
        for a, b in itertools.permutations(range(t.rank), 2):
            if t.variance[a] != t.variance[b]:
                assert tensor_contract(t, a, b) == contract_oracle(t, a, b)


def test_a_tensor_matrix_over_other_parameters_is_refused():
    t = _mixed_tensor(DIM, "udd")
    for m in (coefficient_tensor(mat_identity(DIM, ()), "ud"),
              coefficient_tensor(mat_identity(DIM, ("l1",)), "ud"),
              Tensor.zeros(DIM, "udd", PARAMS)):
        for call in (lambda: t.map_slot(m, 1), lambda: t.lower_slot(0, m),
                     lambda: t.raise_slot(1, m), lambda: tensor_contract(t, 1, 2, m),
                     lambda: arranged(t, "x,Py,z", m)):
            with pytest.raises(ValueError, match="rank-2 tensor of the parameter context"):
                call()


def _dense(n: int) -> list:
    """An n x n matrix of constants, neither diagonal nor a signed permutation."""
    return [[C(i + 2 * j + 1) for j in range(n)] for i in range(n)]


# a slot matrix whose size is not the tensor's dimension: a Tensor, nested
# rows (smaller, larger) and ragged rows
WRONG_SIZE = {"tensor-2": coefficient_tensor(_dense(2), "ud"),
              "tensor-5": coefficient_tensor(_dense(5), "ud"),
              "rows-3": _dense(3), "rows-5": _dense(5),
              "ragged": _dense(4)[:3] + [_dense(3)[0]]}
SLOT_MATRIX_CALLS = {
    "map_slot": lambda t, m: t.map_slot(m, 0),
    "map_slots": lambda t, m: t.map_slots([None, m, None]),
    "lower_slot": lambda t, m: t.lower_slot(2, m),
    "raise_slot": lambda t, m: t.raise_slot(0, m),
    "arranged": lambda t, m: arranged(t, "y,Px,z", m),
    "tensor_contract": lambda t, m: tensor_contract(t, 0, 1, m),
}


@pytest.mark.parametrize("matrix", list(WRONG_SIZE))
@pytest.mark.parametrize("call", list(SLOT_MATRIX_CALLS))
def test_a_slot_matrix_of_another_size_is_refused(call, matrix):
    # the family's brackets, a ddu tensor of dimension 4
    t = build_example().brackets
    pattern = "rank-2 tensor of the parameter context and dimension 4" \
        if matrix.startswith("tensor") else r"expected a 4 x 4 matrix, got row lengths"
    with pytest.raises(ValueError, match=pattern):
        SLOT_MATRIX_CALLS[call](t, WRONG_SIZE[matrix])


@pytest.mark.parametrize("slots", [(0, 1, 3), (-1, 0, 1), (0, 1, 5)])
def test_cyclic_sum_refuses_a_slot_outside_the_rank(slots):
    with pytest.raises(ValueError, match=r"three distinct slots in 0\.\.2"):
        cyclic_sum(tensor_from_ints("ddd", list(range(64))), slots)


def test_fifty_arranged_calls_of_one_shape_add_one_gather():
    dim, signs = 5, (1, -1, -1, 1, -1)
    p = coefficient_tensor([[Scalar.constant(PARAMS, s if i == j else 0) for j in range(dim)]
                            for i, s in enumerate(signs)], "ud")
    arranged(Tensor.zeros(dim, "ddd", PARAMS), "Px,y,z", p)  # the size's offsets exist
    _GATHERS.pop((dim, (2, 0, 1), (0, 2), signs), None)  # an earlier test may have made it
    before = len(_GATHERS)
    for k in range(50):
        t = Tensor(dim, "ddu", PARAMS, [C(k - v) for v in range(dim ** 3)])
        # S(x, y, z) = T(Pz, x, Py), P e_i = signs[i] e_i
        assert arranged(t, "Pz,x,Py", p)[1, 2, 3] == t[3, 1, 2] * C(signs[3] * signs[2])
    assert len(_GATHERS) == before + 1 and (dim, (2, 0, 1), (0, 2), signs) in _GATHERS


# matrices for the slot-map pass, on ints and, where the kind has one, with
# a parameter: a diagonal of 1 and -1, a scaled diagonal, the block swap and
# a dense matrix
PASS_MATRICES = {
    "signs": [_diagonal([C(x) for x in (1, 1, -1, -1)])],
    "scales": [_diagonal((C(2), C(-1), C(Fraction(1, 3)), C(1))), _diagonal((A, C(1), C(2), -A))],
    "swap": [[[C(int(j == (i + 2) % DIM)) for j in range(DIM)] for i in range(DIM)]],
    "dense": [[[C(0), C(1), C(2), C(0)], [C(1), C(0), C(0), C(Fraction(1, 2))],
               [C(0), C(-1), C(1), C(0)], [C(3), C(0), C(0), C(-2)]],
              PRODUCT_MATRICES["dense"]]}


def _slot_matrices(kind, rank):
    """Lists of one matrix per slot: every form of one kind on each slot,
    or for "each" the kinds in turn on ints, and parametric ones with the
    dense matrix second, so that a diagonal scales a slot that has moved."""
    if kind != "each":
        return [[m] * rank for m in PASS_MATRICES[kind]]
    (signs,), scales, (swap,), dense = PASS_MATRICES.values()
    return [[signs, scales[0], swap, dense[0]][:rank],
            [scales[1], dense[1], scales[0], signs][:rank]]


@pytest.mark.parametrize("variance", ["d", "u", "dd", "ud", "ddu", "dddd"])
@pytest.mark.parametrize("kind", list(PASS_MATRICES) + ["each"])
def test_the_slot_map_pass_matches_one_slot_map_at_a_time(variance, kind):
    # each form of tensor against each form of matrix, every set of slots;
    # the pass on every slot against the Scalar index loop as well
    rank = len(variance)
    for t in _both_forms(DIM, variance, seed=rank):
        for matrices in _slot_matrices(kind, rank):
            for count in range(rank + 1):
                for slots in itertools.combinations(range(rank), count):
                    expected = t
                    for slot in slots:
                        expected = expected.map_slot(matrices[slot], slot)
                    got = t.map_slots([m if k in slots else None
                                       for k, m in enumerate(matrices)])
                    _assert_matches(got, expected)
            oracle = t
            for slot, m in enumerate(matrices):
                oracle = map_slot_oracle(oracle, m, slot)
            assert t.map_slots(matrices) == oracle


@pytest.mark.parametrize("count", [0, 2, 4])
def test_the_slot_map_pass_needs_one_entry_per_slot(count):
    t = Tensor(DIM, "ddu", PARAMS, [C(k % 5 - 2) for k in range(DIM ** 3)])
    with pytest.raises(ValueError, match="rank-3"):
        t.map_slots([PASS_MATRICES["dense"][0]] * count)


@pytest.mark.parametrize("kind", ["signs", "dense"])
def test_a_slot_map_refuses_a_slot_outside_the_rank(kind):
    # on the signed gather and on the pass alike; lower_slot and raise_slot
    # check the range before they read the slot's variance
    m = PASS_MATRICES[kind][0]
    dd, uu = (Tensor(DIM, v, PARAMS, [C(k % 5 - 2) for k in range(DIM ** 2)])
              for v in ("dd", "uu"))
    calls = [lambda: dd.map_slot(m, -1), lambda: uu.map_slot(m, 2)]
    for slot in (-1, 2, 6):
        calls += [functools.partial(dd.raise_slot, slot, m),
                  functools.partial(uu.lower_slot, slot, m)]
    for call in calls:
        with pytest.raises(ValueError, match="rank-2"):
            call()
    fa = build_example((1, 2, 3, 5))
    for slot in (-1, 3, 7):
        for call in (fa.brackets.lower_slot, fa.brackets.raise_slot):
            with pytest.raises(ValueError, match="slot %d of a rank-3 tensor" % slot):
                call(slot, fa.metric)


def _gather_kind(key, value):
    """The documented kind of a ``_GATHERS`` entry, or None."""
    getter = type(operator.itemgetter(0))
    if type(key) is int:
        return "offsets" if value == list(range(key)) else None
    if type(key) is not tuple or type(key[0]) is not int:
        return None
    if len(key) == 2 and sorted(key[1]) == list(range(len(key[1]))):
        return "transpose" if type(value) is getter else None
    if len(key) == 4 and type(value) is getter and len(key[2]) <= len(key[1]) and \
            set(key[3]) <= {1, -1} and len(key[3]) == key[0]:
        return "signed"
    if len(key) == 3 and all(type(x) is int for x in key) and key[2] <= key[1] - 2:
        return "mirrors" if type(value) is tuple and len(value) == 3 and \
            all(type(x) is getter for x in value) else None
    if len(key) == 5 and all(type(x) is int for x in key[1:3]) and \
            all(type(x) is bool for x in key[3:]) and any(key[3:]):
        # a getter of kept rows and of kept columns on each skew side
        return "skew-fill" if type(value) is tuple and len(value) == 3 and \
            [type(x) is getter for x in value] == [*key[3:], True] else None
    return None


def test_every_gather_table_entry_is_a_documented_kind():
    # a check of a W3 frame in a basis with a dense P and in its adapted
    # basis, and a parametric one, fill every kind of entry
    frames = [random_frames()[-1], adapted_frame(build_example((1, 2, 3, 5))),
              adapted_frame(build_example())]
    for fa in frames:
        run_all(fa)
    kinds = {key: _gather_kind(key, value) for key, value in _GATHERS.items()}
    assert None not in kinds.values(), [key for key, kind in kinds.items() if kind is None]
    assert set(kinds.values()) == {"offsets", "transpose", "signed", "mirrors", "skew-fill"}


def test_the_slot_map_pass_gathers_only_by_dim_and_perm():
    dim = 5
    m = [[C((i * dim + j) % 3 - 1) for j in range(dim)] for i in range(dim)]
    t = Tensor(dim, "ddu", PARAMS, [C(k % 7 - 3) for k in range(dim ** 3)])
    t.transpose((0, 1, 2))  # the size's offsets exist
    before = set(_GATHERS)
    # with every slot mapped, two rotations by one place bring slots 1 and 2
    # to the front, and the restoring gather is that rotation again
    t.map_slots([m, m, m])
    assert (dim, (2, 0, 1)) in _GATHERS
    t.map_slot(m, 1)
    arranged(t, "Pz,x,Py", m)
    assert all(type(key) is tuple and len(key) == 2 for key in set(_GATHERS) - before)


def test_a_row_of_b_no_entry_of_a_reads_makes_no_terms():
    class Unread(list):
        def __iter__(self):
            raise AssertionError("a row no entry of a reads was read")

    assert _mul([[1, 0, 2]], [[1, 2], Unread([3, 3]), [2, 0]], False) == [[5, 2]]
    assert _mul([[{0: 1}, {}, {0: 2}]], [[{0: 1}, {64: 2}], Unread([{0: 3}, {0: 3}]),
                                         [{0: 2}, {}]], True) == [[{0: 5}, {64: 2}]]


CHANGE_OF_BASIS_FRAMES = {
    "family": lambda: build_example().substitute({"l1": 1, "l2": 2, "l3": 3, "l4": 5}),
    "family, symbolic": build_example, "six-dim": six_dim_frame,
    "symbolic metric": symbolic_metric_frame, "scaled family": scaled_family_frame}


@pytest.mark.parametrize("name", list(CHANGE_OF_BASIS_FRAMES))
def test_a_change_of_basis_matches_the_nested_loop(name):
    fa = CHANGE_OF_BASIS_FRAMES[name]()
    af = adapted_frame(fa)
    s, s_inv = _rows(af.s.comps, fa.dim), _rows(af.s_inv.comps, fa.dim)
    for t, moved in ((fa.brackets, af.brackets), (fa.metric, af.metric),
                     (fa.product, af.product)):
        assert _moved(t, af.s, af.s_inv) == change_of_basis_oracle(t, s, s_inv) == moved
        assert af.to_user(moved) == t


@pytest.mark.parametrize("name", list(CHANGE_OF_BASIS_FRAMES) + ["conj8"])
def test_square_norm_matches_raising_one_slot_at_a_time(name):
    fa = random_frames()[-1] if name == "conj8" else CHANGE_OF_BASIS_FRAMES[name]()
    af = adapted_frame(fa)
    for frame in (fa, af):
        ginv = frame.metric_inv
        for t in (fundamental_F(frame), frame.brackets.lower_slot(2, frame.metric)):
            up = t.raise_slot(0, ginv).raise_slot(1, ginv).raise_slot(2, ginv)
            assert square_norm(t, frame) == contract_all(t, up) == \
                sum((x * y for x, y in zip(t.comps, up.comps)), Scalar.zero(t.params))


def test_cyclic_sum_of_zero():
    z = Tensor.zeros(DIM, "ddd", PARAMS)
    assert cyclic_sum(z, (0, 1, 2)).is_zero


def test_cyclic_sum_triple_on_symmetric_input():
    t = tensor_from_ints("ddd", [1] * 64)
    assert cyclic_sum(t, (0, 1, 2)) == t.scale(3)


@settings(max_examples=25, deadline=None)
@given(small_tensors3)
def test_cyclic_sum_matches_oracle(t):
    assert cyclic_sum(t, (0, 1, 2)) == cyclic_sum_oracle(t, (0, 1, 2))


def test_alternate_kills_symmetric_pair():
    t = tensor_from_ints("dd", [1 if i <= j else 1 for i in range(DIM)
                                for j in range(DIM)])
    assert alternate(t, (0, 1)).is_zero


@settings(max_examples=25, deadline=None)
@given(small_tensors3)
def test_alternate_idempotent(t):
    a = alternate(t, (0, 1, 2))
    assert alternate(a, (0, 1, 2)) == a


@settings(max_examples=25, deadline=None)
@given(small_tensors3)
def test_alternate_output_is_skew(t):
    a = alternate(t, (0, 1, 2))
    assert (a + a.transpose((1, 0, 2))).is_zero
    assert (a + a.transpose((0, 2, 1))).is_zero


@settings(max_examples=20, deadline=None)
@given(small_tensors3, small_tensors3, st.integers(-3, 3))
def test_contraction_linear(t1, t2, k):
    g = mat_identity(DIM, PARAMS)
    lhs = tensor_contract(t1.scale(k) + t2, 0, 2, g)
    rhs = tensor_contract(t1, 0, 2, g).scale(k) + tensor_contract(t2, 0, 2, g)
    assert lhs == rhs


def test_contraction_commutes_with_substitution():
    t = build_tensor(DIM, "dd", PARAMS,
                     lambda idx: parse_expression("l%d + l%d" % (idx[0] + 1, idx[1] + 1),
                                                  PARAMS))
    g = mat_identity(DIM, PARAMS)
    values = {"l1": 1, "l2": Fraction(1, 2), "l3": -2, "l4": 3}
    sub_then = tensor_contract(t, 0, 1, g).substitute(values)
    then_sub = tensor_contract(t.substitute(values), 0, 1,
                               mat_identity(DIM, ()))
    assert sub_then == then_sub


def test_matrix_inverse_parametric():
    a = Scalar.parameter(PARAMS, "l1")
    one, zero = Scalar.one(PARAMS), Scalar.zero(PARAMS)
    m = [[one + a * a, zero], [a, one]]
    inv = mat_inv(m)
    assert mat_mul(m, inv) == mat_identity(2, PARAMS)
    assert mat_det(m) == one + a * a


def test_singular_matrix_rejected():
    a = Scalar.parameter(PARAMS, "l1")
    zero = Scalar.zero(PARAMS)
    m = [[a, a], [a, a]]
    assert mat_det(m) == zero
    with pytest.raises(ValueError, match="singular"):
        mat_inv(m)


@pytest.mark.parametrize("helper", [mat_inv, mat_det, leading_minors])
@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]],
                                  [[1, 2], [3]], []])
def test_matrix_helpers_reject_a_matrix_that_is_not_square(helper, rows):
    with pytest.raises(ValueError, match="square"):
        helper([[C(x) for x in row] for row in rows])


def test_row_reduce_of_an_empty_matrix_is_empty():
    assert row_reduce([]) == ([], [], [], 0)


def test_raise_lower_roundtrip():
    a = Scalar.parameter(PARAMS, "l2")
    one, zero = Scalar.one(PARAMS), Scalar.zero(PARAMS)
    g = [[one + a * a, a, zero, zero], [a, one, zero, zero],
         [zero, zero, one, zero], [zero, zero, zero, one]]
    ginv = mat_inv(g)
    t = tensor_from_ints("ddd", [(i * j + k) % 5 for i in range(DIM)
                                 for j in range(DIM) for k in range(DIM)])
    assert t.raise_slot(1, ginv).lower_slot(1, g) == t


# ---------------------------------------------------------------------------
# the int form: constant tensors on int numerators over one denominator

N3 = 3
fractions_ = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 10]))


def _constant_tensor(data, variance, params=PARAMS):
    values = data.draw(st.lists(fractions_, min_size=N3 ** len(variance),
                                max_size=N3 ** len(variance)))
    return Tensor(N3, variance, params, [Scalar.constant(params, v) for v in values])


def _constant_square(data, diagonal=False, symmetric=False):
    m = [[data.draw(fractions_) if i == j or not diagonal else 0 for j in range(N3)]
         for i in range(N3)]
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(N3)] for i in range(N3)]
    return [[C(x) for x in row] for row in m]


def _scalar_built(t):
    """t's values in a tensor that ops built through the parametric form:
    its entries are constants again, so it drops back to the int form."""
    p = _mixed_tensor(t.dim, t.variance)
    assert (t + p).ints is None
    out = (t + p) - p
    _assert_int_form(out)
    return out


def _assert_int_form(t):
    """t holds the int form, canonical: den > 0 and gcd(den, *nums) = 1."""
    assert t.ints is not None
    nums, den = t.ints
    assert den > 0 and gcd(den, *nums) == 1
    assert len(nums) == t.dim ** t.rank


def _assert_matches(got, expected):
    assert (got.dim, got.variance, got.params) == \
        (expected.dim, expected.variance, expected.params)
    assert got.comps == expected.comps
    assert got == expected


variances = st.sampled_from(["d", "u", "dd", "ud", "du", "ddu", "udd", "dud"])
factors = st.one_of(st.integers(-4, 4), fractions_)


@settings(max_examples=40, deadline=None)
@given(variance=variances, factor=factors, data=st.data())
def test_int_form_elementwise_ops_match_the_scalar_oracle(variance, factor, data):
    a, b = _constant_tensor(data, variance), _constant_tensor(data, variance)
    # scaling shares factors with both sides: 12 with six's numerators and
    # 9 with sixth's denominator
    zero, six, sixth = Tensor.zeros(N3, variance, PARAMS), a.scale(6), a.scale(Fraction(1, 6))
    cases = [(a + b, elementwise_oracle(operator.add, a, b)),
             (a - b, elementwise_oracle(operator.sub, a, b)),
             (a - a, elementwise_oracle(operator.sub, a, a)),
             (-a, elementwise_oracle(operator.neg, a)),
             (a.scale(factor), elementwise_oracle(lambda x: x * factor, a)),
             (a.scale(C(factor)), elementwise_oracle(lambda x: x * factor, a)),
             (zero.scale(factor), zero),
             (six.scale(Fraction(5, 12)), elementwise_oracle(lambda x: x * Fraction(5, 12), six)),
             (sixth.scale(9), elementwise_oracle(lambda x: x * 9, sixth))]
    for got, expected in cases:
        _assert_int_form(got)
        _assert_matches(got, expected)
        assert got.is_zero == all(x.is_zero for x in expected.comps)
    assert (a - a).is_zero


@settings(max_examples=40, deadline=None)
@given(variance=variances, data=st.data())
def test_int_form_slot_ops_match_the_scalar_oracle(variance, data):
    a = _constant_tensor(data, variance)
    perm = data.draw(st.permutations(range(len(variance))))
    dense, diagonal = _constant_square(data), _constant_square(data, diagonal=True)
    slot = data.draw(st.integers(0, len(variance) - 1))
    metric = _constant_square(data, symmetric=True)
    change = a.lower_slot if variance[slot] == "u" else a.raise_slot
    cases = [(a.transpose(perm), transpose_oracle(a, perm)),
             (a.map_slot(dense, slot), map_slot_oracle(a, dense, slot)),
             (a.map_slot(diagonal, slot), map_slot_oracle(a, diagonal, slot)),
             (change(slot, metric), slot_change_oracle(a, metric, slot))]
    for got, expected in cases:
        _assert_int_form(got)
        _assert_matches(got, expected)


@settings(max_examples=30, deadline=None)
@given(left=st.sampled_from(["u", "du", "ddu"]), right=st.sampled_from(["d", "dd", "dud"]),
       data=st.data())
def test_int_form_compose_and_contractions_match_the_scalar_oracle(left, right, data):
    a, b = _constant_tensor(data, left), _constant_tensor(data, right)
    t = _constant_tensor(data, "ddud")
    metric, dense = _constant_square(data, symmetric=True), _constant_square(data)
    cases = [(compose(a, b), compose_oracle(a, b)),
             (tensor_contract(t, 0, 3, metric), contract_oracle(t, 0, 3, metric)),
             (tensor_contract(t, 1, 0, metric), contract_oracle(t, 1, 0, metric)),
             (tensor_contract(t, 1, 0, dense), contract_oracle(t, 1, 0, dense)),
             (tensor_contract(t, 2, 1), contract_oracle(t, 2, 1)),
             (tensor_contract(t, 3, 2), contract_oracle(t, 3, 2))]
    for got, expected in cases:
        _assert_int_form(got)
        _assert_matches(got, expected)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_int_form_cyclic_sum_arranged_and_substitute_match_the_scalar_oracle(data):
    t = _constant_tensor(data, "ddd")
    p = _constant_square(data)
    values = {"l1": 2, "l2": Fraction(-1, 3), "l3": 0, "l4": 5}
    cases = [(cyclic_sum(t, (0, 1, 2)), cyclic_sum_oracle(t, (0, 1, 2))),
             (arranged(t, "Pz,x,Py", p), arranged_oracle(t, "Pz,x,Py", p)),
             (arranged(t, "y,Px,z", p), arranged_oracle(t, "y,Px,z", p)),
             (t.substitute(values), substitute_oracle(t, values))]
    for got, expected in cases:
        _assert_int_form(got)
        _assert_matches(got, expected)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["parametric", "scalar-built"]), factor=factors,
       data=st.data())
def test_ops_mixing_the_int_form_with_scalar_tensors_match_the_oracle(kind, factor, data):
    a = _constant_tensor(data, "dud")
    b = _mixed_tensor(N3, "dud") if kind == "parametric" else \
        _scalar_built(_constant_tensor(data, "dud"))
    slot = data.draw(st.integers(0, 2))
    matrix = _constant_square(data)
    param_matrix = [[A if i == j == 1 else x for j, x in enumerate(row)]
                    for i, row in enumerate(matrix)]
    cases = [(a + b, elementwise_oracle(operator.add, a, b)),
             (b - a, elementwise_oracle(operator.sub, b, a)),
             (b.scale(factor), elementwise_oracle(lambda x: x * factor, b)),
             (a.scale(A), elementwise_oracle(lambda x: x * A, a)),
             (compose(b.transpose((0, 2, 1)), a), compose_oracle(b.transpose((0, 2, 1)), a)),
             (a.map_slot(param_matrix, slot), map_slot_oracle(a, param_matrix, slot)),
             (b.map_slot(matrix, slot), map_slot_oracle(b, matrix, slot)),
             (tensor_contract(b, 0, 1), contract_oracle(b, 0, 1))]
    for got, expected in cases:
        # the storage form follows the entries alone
        assert (got.ints is not None) == all(x.is_constant for x in expected.comps)
        _assert_matches(got, expected)


@settings(max_examples=30, deadline=None)
@given(variance=variances, data=st.data())
def test_int_form_equals_a_scalar_built_tensor_of_the_same_values(variance, data):
    a = _constant_tensor(data, variance)
    twin = _scalar_built(a)
    _assert_int_form(a)
    assert a == twin and twin == a
    assert a.comps == twin.comps
    assert a.is_zero == twin.is_zero
    assert a.scale(0) == _scalar_built(a.scale(0)) and a.scale(0).is_zero
    other = a + Tensor.zeros(N3, variance, PARAMS).map_slot(
        _constant_square(data, diagonal=True), 0)
    assert other == a


# ---------------------------------------------------------------------------
# elimination: row_reduce and the helpers built on it against a Fraction oracle

entries = st.one_of(st.integers(-3, 3), fractions_)


@st.composite
def constant_matrices(draw):
    """Square, wide and tall matrices; some singular (a row that combines
    others), some with zero leading entries in the first row, so that the
    elimination must swap."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 6)))
    m = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(rows)))[:2] + [draw(st.integers(0, rows - 1))]
        a, b = draw(entries), draw(entries)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    if draw(st.booleans()):
        lead = draw(st.integers(1, cols))
        m[0] = [0] * lead + m[0][lead:]
    return m


def _as_scalars(m, params):
    return [[Scalar.constant(params, x) for x in row] for row in m]


def _oracle_det(m):
    _, pivots, values, swaps = row_reduce_oracle(m)
    if len(pivots) < len(m):
        return 0
    return (-1) ** swaps * functools.reduce(operator.mul, values, 1)


@settings(max_examples=200, deadline=None)
@given(m=constant_matrices(), params=st.sampled_from([(), ("a", "b")]))
@example(m=[[1, 2], [3, 4]], params=())  # the last pivot, det = -2, is negative
@example(m=[[0, 1], [0, 2], [3, 1]], params=())  # tall, with a zero leading column
@example(m=[[Fraction(1, 2), Fraction(2, 3)], [Fraction(-3, 4), 5]], params=("a", "b"))
def test_elimination_on_constants_matches_the_fraction_oracle(m, params):
    s = _as_scalars(m, params)
    rref, pivots, minors, swaps = row_reduce(s)
    o_rref, o_pivots, o_values, o_swaps = row_reduce_oracle(m)
    assert (pivots, swaps) == (o_pivots, o_swaps)
    assert rref == _as_scalars(o_rref, params)
    assert minors == [Scalar.constant(params, v)
                      for v in itertools.accumulate(o_values, operator.mul)]
    assert all(x.params == params for x in itertools.chain(minors, *rref))
    n = len(m)
    if any(len(row) != n for row in m):
        return
    assert mat_det(s) == Scalar.constant(params, _oracle_det(m))
    minors = leading_minors(s)
    if swaps or len(pivots) < n:
        assert minors[:-1] == [None] * (n - 1)
    else:
        assert minors == [Scalar.constant(params, _oracle_det([row[:k] for row in m[:k]]))
                          for k in range(1, n + 1)]
    if len(pivots) < n:
        with pytest.raises(ValueError, match="singular"):
            mat_inv(s)
    else:
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        o_inv = [row[n:] for row in row_reduce_oracle([a + b for a, b in zip(m, identity)])[0]]
        assert mat_inv(s) == _as_scalars(o_inv, params)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_symbolic_elimination_commutes_with_substitution(data):
    params = ("a", "b")
    a, b = (Scalar.parameter(params, name) for name in params)
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    coeffs = st.integers(-2, 2)
    m = [[data.draw(coeffs) + data.draw(coeffs) * a + data.draw(coeffs) * b
          for _ in range(cols)] for _ in range(rows)]
    rref, pivots, minors, swaps = row_reduce(m)
    # a point where no minor vanishes (nor has a vanishing denominator), so
    # no pivot does
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    for _ in range(20):
        point = {name: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for name in params}
        try:
            if all(v.substitute(point) for v in minors):
                break
        except ZeroDivisionError:
            pass
    else:
        assume(False)
    at = row_reduce([[Scalar.constant((), x.substitute(point)) for x in row] for row in m])
    assert (at[1], at[3]) == (pivots, swaps)
    assert [v.value for v in at[2]] == [v.substitute(point) for v in minors]
    assert [[x.value for x in row] for row in at[0]] == \
        [[x.substitute(point) for x in row] for row in rref]


@pytest.mark.parametrize("rows", [
    [["0", "a"], ["1", "0"]],
    [["0", "a", "1"], ["0", "1", "b"], ["a", "b", "1"]],
], ids=["2x2", "3x3"])
def test_parametric_elimination_swaps_rows_like_the_fraction_oracle(rows):
    # the first pivot lies below the top row, so the Scalar loop swaps
    params = ("a", "b")
    m = [[parse_expression(x, params) for x in row] for row in rows]
    n, point = len(m), {"a": Fraction(3, 2), "b": Fraction(-5, 7)}
    rref, pivots, minors, swaps = row_reduce(m)
    o_rref, o_pivots, o_values, o_swaps = row_reduce_oracle(
        [[x.substitute(point) for x in row] for row in m])
    assert (pivots, swaps) == (o_pivots, o_swaps) and swaps
    assert [v.substitute(point) for v in minors] == list(
        itertools.accumulate(o_values, operator.mul))
    assert [[x.substitute(point) for x in row] for row in rref] == o_rref
    minors = leading_minors(m)
    assert minors[:-1] == [None] * (n - 1)
    assert minors[-1] == mat_det(m) and minors[-1].substitute(point) == _oracle_det(
        [[x.substitute(point) for x in row] for row in m])
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    o_inv = [row[n:] for row in row_reduce_oracle(
        [[x.substitute(point) for x in row] + e for row, e in zip(m, identity)])[0]]
    assert [[x.substitute(point) for x in row] for row in mat_inv(m)] == o_inv


def _refuse(*args):
    raise AssertionError("Scalar arithmetic on a constant matrix")


def test_constant_minors_make_no_scalar_arithmetic(monkeypatch):
    # the minors of a constant matrix come from the elimination's ints: with
    # Scalar sums, products and quotients refused they still match the
    # oracle, on the constant metrics of the battery (no swap) and on
    # matrices whose elimination swaps rows once and twice (det only, signed)
    frames = [fa for fa in random_frames() if all(x.is_constant for row in fa.g for x in row)]
    metrics = [fa.g for fa in frames]
    swapped = [_as_scalars(m, params) for params in ((), ("a", "b")) for m in (
        [[0, 2, 1], [1, 1, 0], [3, 0, Fraction(1, 2)]],
        [[0, 0, 1], [Fraction(2, 3), 1, 0], [1, 0, 0]])]
    for name in ("__add__", "__mul__", "__truediv__"):
        monkeypatch.setattr(Scalar, name, _refuse)
    assert len(frames) == 19
    for fa, g in zip(frames, metrics):
        m = [[x.value for x in row] for row in g]
        expected = [Scalar.constant((), _oracle_det([row[:k] for row in m[:k]]))
                    for k in range(1, len(m) + 1)]
        assert leading_minors(g) == fa.metric_minors == expected
        assert mat_det(g) == expected[-1]
    for s in swapped:
        params = s[0][0].params
        m = [[x.value for x in row] for row in s]
        assert row_reduce_oracle(m)[3]
        det = Scalar.constant(params, _oracle_det(m))
        assert leading_minors(s) == [None] * (len(m) - 1) + [det]
        assert mat_det(s) == det


@st.composite
def square_matrices(draw):
    """Square matrices of sizes 1 to 8: some singular (a row that combines
    two others), some with a vanishing leading minor (the first row zero up
    to a column), so that the elimination swaps."""
    n = draw(st.integers(1, 8))
    m = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 2 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        a, b = draw(entries), draw(entries)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    if draw(st.booleans()):
        lead = draw(st.integers(1, n))
        m[0] = [0] * lead + m[0][lead:]
    return m


def _inverse_variance(variance):
    return "".join("d" if v == "u" else "u" for v in reversed(variance))


def _assert_tensor_elimination_matches_rows(t, rows):
    """row_reduce, pivot_columns, leading_minors, mat_det and mat_inv of a
    rank-2 Tensor equal those of its rows, the matrix results as Tensors of
    the tensor's variance, the inverse's flipped; both refuse a singular
    matrix alike."""
    n = t.dim
    rref, pivots, minors, swaps = row_reduce(t)
    assert rref.variance == t.variance and rref.params == t.params
    assert (_rows(rref.comps, n), pivots, minors, swaps) == row_reduce(rows)
    assert pivot_columns(t) == pivot_columns(rows) == pivots
    assert leading_minors(t) == leading_minors(rows)
    assert mat_det(t) == mat_det(rows)
    if len(pivots) < n:
        for m in (t, rows):
            with pytest.raises(ValueError, match="^matrix is singular$"):
                mat_inv(m)
        return None
    inv = mat_inv(t)
    assert inv.variance == _inverse_variance(t.variance) and inv.params == t.params
    assert _rows(inv.comps, n) == mat_inv(rows)
    return inv


@settings(max_examples=150, deadline=None)
@given(m=square_matrices(), params=st.sampled_from([(), ("a", "b")]),
       variance=st.sampled_from(["dd", "ud", "du", "uu"]))
@example(m=[[0, 1], [1, 0]], params=(), variance="ud")  # the first leading minor is 0
@example(m=[[1, 2], [2, 4]], params=(), variance="dd")  # singular
@example(m=[[Fraction(1, 2), Fraction(2, 3)], [Fraction(-3, 4), 5]], params=("a", "b"),
         variance="dd")
def test_elimination_of_a_constant_tensor_matches_its_rows(m, params, variance):
    s = _as_scalars(m, params)
    t = coefficient_tensor(s, variance)
    inv = _assert_tensor_elimination_matches_rows(t, s)
    rref, pivots, _, swaps = row_reduce(t)
    o_rref, o_pivots, _, o_swaps = row_reduce_oracle(m)
    assert rref == coefficient_tensor(_as_scalars(o_rref, params), variance)
    assert (pivots, swaps) == (o_pivots, o_swaps)
    if inv is not None:
        n = len(m)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        o_inv = [row[n:] for row in row_reduce_oracle([a + b for a, b in zip(m, identity)])[0]]
        assert inv == coefficient_tensor(_as_scalars(o_inv, params), _inverse_variance(variance))


@pytest.mark.parametrize("build, matrix", [(symbolic_metric_frame, "metric"),
                                           (scaled_family_frame, "metric"),
                                           (sheared_family_frame, "product")],
                         ids=["symbolic-metric", "scaled-metric", "sheared-product"])
def test_elimination_of_a_parametric_tensor_matches_its_rows(build, matrix):
    fa = build()
    t = getattr(fa, matrix)
    assert t.ints is None
    inv = _assert_tensor_elimination_matches_rows(t, _rows(t.comps, fa.dim))
    if matrix == "metric":
        assert fa.metric_inv == inv and fa.metric_minors == leading_minors(fa.g)
    # a singular parametric matrix: the second row is the first times (1 + a)
    first = t.comps[:fa.dim]
    factor = 1 + Scalar.parameter(fa.params, "a")
    singular = [first, [x * factor for x in first]] + _rows(t.comps, fa.dim)[2:]
    _assert_tensor_elimination_matches_rows(coefficient_tensor(singular, t.variance), singular)


def _unit_triangular(data, n, params, lower):
    """An n x n unit triangular matrix with entries c + d*a + e*b off the
    diagonal: its determinant is 1, for every value of a and b."""
    a, b = (Scalar.parameter(params, name) for name in params)
    coeffs = st.integers(-2, 2)
    return [[Scalar.one(params) if i == j else
             data.draw(coeffs) + data.draw(coeffs) * a + data.draw(coeffs) * b
             if (i > j) == lower else Scalar.zero(params) for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(m=constant_matrices(), parametric=st.booleans(), data=st.data())
@example(m=[[0, 0, 0], [0, 0, 0]], parametric=False, data=None)  # zero: every column free
@example(m=[[2, 1], [1, 1]], parametric=False, data=None)  # full rank: no vector
@example(m=[[2, 1], [1, 1]], parametric=True, data=None)
@example(m=[[1, 2, 3], [2, 4, 6]], parametric=True, data=None)
def test_null_space_matches_the_fraction_oracle(m, parametric, data):
    # a parametric matrix is L m R with L, R unit triangular over (a, b), or
    # (1 + a) m in the explicit examples: the rank is m's, read from the
    # oracle, and the Scalar loop runs
    params = ("a", "b")
    rows, cols = len(m), len(m[0])
    s = _as_scalars(m, params)
    if parametric:
        if data is None:
            s = [[x * (1 + Scalar.parameter(params, "a")) for x in row] for row in s]
        else:
            s = mat_mul(mat_mul(_unit_triangular(data, rows, params, True), s),
                        _unit_triangular(data, cols, params, False))
    o_pivots = row_reduce_oracle(m)[1]
    basis = null_space(s)
    assert len(basis) == cols - len(o_pivots)
    # the free columns: the oracle's, or for L m R those of its own elimination
    pivots = row_reduce(s)[1] if parametric else o_pivots
    free = [col for col in range(cols) if col not in pivots]
    for v, col in zip(basis, free):
        assert all(x.is_zero for row in mat_mul(s, [[x] for x in v]) for x in row)
        assert [v[f] for f in free] == [Scalar.constant(params, int(f == col)) for f in free]


@pytest.mark.parametrize("rows", [[], [[]], [[1, 2], [3]]],
                         ids=["no-rows", "no-columns", "ragged"])
def test_null_space_refuses_an_empty_or_ragged_matrix(rows):
    with pytest.raises(ValueError, match="rows and columns"):
        null_space([[C(x) for x in row] for row in rows])


# ---------------------------------------------------------------------------
# the parametric form: int polynomials over one polynomial denominator

PP = ("a", "b")
PA, PB = (Scalar.parameter(PP, name) for name in PP)
# denominators with a shared factor, a square, and ones prime to the rest
PDENS = [1 + PA * PB, (1 + PA * PB) ** 2, PA - 2 * PB, 2 * PA + 1]
N2 = 2

_coeffs = st.integers(-3, 3)
_polys = st.builds(lambda c0, c1, c2, c3: c0 + c1 * PA + c2 * PA * PB + c3 * PB * PB,
                   _coeffs, _coeffs, _coeffs, _coeffs)
# zeros, ints, Fractions, polynomials, polynomials with rational content and
# true fractions over several denominators
param_entries = st.one_of(
    st.just(Scalar.zero(PP)),
    st.one_of(st.integers(-4, 4), fractions_).map(lambda q: Scalar.constant(PP, q)),
    _polys, _polys.map(lambda p: p * Fraction(1, 6)),
    st.builds(lambda p, d: p / d, _polys, st.sampled_from(PDENS)))


def C2(v):
    return Scalar.constant(PP, v)


def _constant_tensor_of(data, variance):
    values = data.draw(st.lists(fractions_, min_size=N2 ** len(variance),
                                max_size=N2 ** len(variance)))
    return Tensor(N2, variance, PP, [C2(v) for v in values])


def _param_tensor(data, variance):
    values = data.draw(st.lists(param_entries, min_size=N2 ** len(variance),
                                max_size=N2 ** len(variance)))
    return Tensor(N2, variance, PP, values)


def _param_square(data, diagonal=False, symmetric=False):
    zero = Scalar.zero(PP)
    m = [[data.draw(param_entries) if i == j or not diagonal else zero
          for j in range(N2)] for i in range(N2)]
    return [[m[min(i, j)][max(i, j)] for j in range(N2)] for i in range(N2)] \
        if symmetric else m


def _assert_canonical(t):
    """t in the form its entries pick, canonical: the int form when every
    entry is a constant, else polynomials over a denominator with positive
    leading coefficient, sharing no factor with every numerator and with
    integer content 1 over all of them."""
    nums, den = t._values()
    assert (t.ints is not None) == all(x.is_constant for x in t.comps)
    if t.ints is not None:
        assert den > 0 and gcd(den, *nums) == 1
        return
    assert den[max(den)] > 0
    assert gcd(*den.values(), *(c for x in nums for c in x.values())) == 1
    common = functools.reduce(_poly_gcd, [x for x in nums if x], _canonical_assoc(den))
    assert _is_const(common)


def _assert_oracle(got, expected):
    _assert_canonical(got)
    _assert_matches(got, expected)
    assert got.is_zero == all(x.is_zero for x in expected.comps)


@settings(max_examples=40, deadline=None)
@given(variance=st.sampled_from(["d", "du", "ddu", "udd"]), data=st.data())
def test_parametric_elementwise_ops_match_the_scalar_oracle(variance, data):
    a, b = _param_tensor(data, variance), _param_tensor(data, variance)
    c = _constant_tensor_of(data, variance)
    factor = data.draw(param_entries)
    cases = [(a + b, elementwise_oracle(operator.add, a, b)),
             (a - b, elementwise_oracle(operator.sub, a, b)),
             (-a, elementwise_oracle(operator.neg, a)),
             (a + c, elementwise_oracle(operator.add, a, c)),
             (c - a, elementwise_oracle(operator.sub, c, a)),
             (a.scale(factor), elementwise_oracle(lambda x: x * factor, a)),
             (c.scale(factor), elementwise_oracle(lambda x: x * factor, c)),
             (a.scale(Fraction(-3, 4)), elementwise_oracle(lambda x: x * Fraction(-3, 4), a))]
    for got, expected in cases:
        _assert_oracle(got, expected)


@settings(max_examples=40, deadline=None)
@given(variance=st.sampled_from(["d", "du", "ddu", "udd", "dud"]), data=st.data())
def test_parametric_slot_ops_match_the_scalar_oracle(variance, data):
    a, c = _param_tensor(data, variance), _constant_tensor_of(data, variance)
    perm = data.draw(st.permutations(range(len(variance))))
    slot = data.draw(st.integers(0, len(variance) - 1))
    dense, diagonal = _param_square(data), _param_square(data, diagonal=True)
    constant = [[C2(x) for x in row] for row in [[1, 2], [Fraction(1, 3), -1]]]
    cases = [(a.transpose(perm), transpose_oracle(a, perm))]
    for t, m in ((a, dense), (a, diagonal), (c, dense), (c, diagonal), (a, constant)):
        change = t.lower_slot if t.variance[slot] == "u" else t.raise_slot
        cases += [(t.map_slot(m, slot), map_slot_oracle(t, m, slot)),
                  (change(slot, m), slot_change_oracle(t, m, slot))]
    for got, expected in cases:
        _assert_oracle(got, expected)


@settings(max_examples=30, deadline=None)
@given(left=st.sampled_from(["u", "du", "ddu"]), right=st.sampled_from(["d", "dd", "dud"]),
       data=st.data())
def test_parametric_products_match_the_scalar_oracle(left, right, data):
    a, b = _param_tensor(data, left), _param_tensor(data, right)
    ca, cb = _constant_tensor_of(data, left), _constant_tensor_of(data, right)
    t, ct = _param_tensor(data, "ddud"), _constant_tensor_of(data, "ddud")
    metric = _param_square(data, symmetric=True)
    m, k = _param_square(data), _param_square(data)
    cases = [(compose(a, b), compose_oracle(a, b)),
             (compose(ca, b), compose_oracle(ca, b)),
             (compose(a, cb), compose_oracle(a, cb)),
             (tensor_contract(t, 0, 3, metric), contract_oracle(t, 0, 3, metric)),
             (tensor_contract(ct, 1, 0, metric), contract_oracle(ct, 1, 0, metric)),
             (tensor_contract(t, 3, 0, m), contract_oracle(t, 3, 0, m)),
             (tensor_contract(t, 2, 1), contract_oracle(t, 2, 1))]
    for got, expected in cases:
        _assert_oracle(got, expected)
    assert mat_mul(m, k) == mat_mul_oracle(m, k, PP)
    assert contract_all(a, a) == sum((x * x for x in a.comps), Scalar.zero(PP))


@settings(max_examples=30, deadline=None)
@given(variance=st.sampled_from(["d", "dd", "ddu"]), data=st.data())
def test_parametric_results_cancel_to_a_polynomial_an_int_form_or_zero(variance, data):
    d = data.draw(st.sampled_from(PDENS))
    polys = data.draw(st.lists(_polys, min_size=N2 ** len(variance),
                               max_size=N2 ** len(variance)))
    over = Tensor(N2, variance, PP, [p / d for p in polys])
    c = _constant_tensor_of(data, variance)
    cases = [(over.scale(d), Tensor(N2, variance, PP, polys)),  # to a polynomial
             ((over + c) - over, c),                            # to the int form
             (over - over, Tensor.zeros(N2, variance, PP)),     # to zero
             (over.scale(d * d).scale(Scalar.one(PP) / d), Tensor(N2, variance, PP, polys))]
    for got, expected in cases:
        _assert_oracle(got, expected)
    assert (over - over).ints == ([0] * N2 ** len(variance), 1)
    assert ((over + c) - over).ints is not None
    assert (over.ints is None) == any(not (p / d).is_constant for p in polys)


POLE = "^denominator vanishes at the given values$"
# a pole of a - 2b, of 2a + 1 and of 1 + ab, a point where a - 2b < 0, and
# random points whose two coordinates have mixed denominators
_points = st.one_of(
    st.sampled_from([{"a": 2, "b": 1}, {"a": Fraction(-1, 2), "b": 5},
                     {"a": 1, "b": -1}, {"a": 0, "b": 1}]),
    st.fixed_dictionaries({name: st.fractions(-3, 3, max_denominator=6) for name in PP}))


def _assert_scalar_substitute(x, point):
    """Scalar.substitute against dict_eval on its num and den."""
    vec = [Fraction(point[name]) for name in x.params]
    den = dict_eval(x.den, vec)
    if not den:
        with pytest.raises(ZeroDivisionError, match=POLE):
            x.substitute(point)
    else:
        got = x.substitute(point)
        assert type(got) is Fraction and got == dict_eval(x.num, vec) / den


@settings(max_examples=60, deadline=None)
@given(data=st.data(), point=_points)
def test_substitute_on_ints_matches_the_fraction_oracle(data, point):
    t = _param_tensor(data, data.draw(st.sampled_from(["d", "dd", "ddu"])))
    try:
        expected = substitute_oracle(t, point)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match=POLE):
            t.substitute(point)
    else:
        _assert_oracle(t.substitute(point), expected)
    for x in t.comps:
        _assert_scalar_substitute(x, point)


def test_substitute_through_a_negative_or_vanishing_denominator():
    t = Tensor(N2, "d", PP, [(PA + 1) / (PA - 2 * PB), PB / (2 * PA + 1)])
    # den's sign follows its leading term in packed order, -2a^2 - a + 4ab + 2b
    at = {"a": 2, "b": Fraction(1, 2)}
    assert dict_eval(t._values()[1], [2, Fraction(1, 2)]) < 0
    _assert_oracle(t.substitute(at), Tensor(N2, "d", (), [Scalar.constant((), 3),
                                                          Scalar.constant((), Fraction(1, 10))]))
    for pole in ({"a": 2, "b": 1}, {"a": Fraction(-1, 2), "b": 7}):
        with pytest.raises(ZeroDivisionError, match=POLE):
            t.substitute(pole)
    for x, point in itertools.product(t.comps, [at, {"a": 0, "b": 1}, {"a": 2, "b": 1}]):
        _assert_scalar_substitute(x, point)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_parametric_substitute_and_equality_follow_the_entries(data):
    a = _param_tensor(data, "ddu")
    point = {"a": Fraction(data.draw(st.integers(-5, 5)), 7), "b": Fraction(3, 11)}
    _assert_oracle(a.substitute(point), substitute_oracle(a, point))
    # equal entries give equal tensors whichever route built them
    twin = Tensor(N2, "ddu", PP, list(a.comps))
    rebuilt = (a + a).scale(Fraction(1, 2))
    assert twin == a == rebuilt and rebuilt._values() == a._values()
    b = _param_tensor(data, "ddu")
    assert (a + b == a) == b.is_zero
