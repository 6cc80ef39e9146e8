"""Tensor algebra: contraction, cyclic sums, alternation, matrices."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rptgeo import (Scalar, Tensor, alternate, arranged, cyclic_sum, mat_det,
                    mat_identity, mat_inv, mat_mul, parse_expression,
                    tensor_contract)

from helpers import cyclic_sum_oracle

PARAMS = ("l1", "l2", "l3", "l4")
DIM = 4


def C(v):
    return Scalar.constant(PARAMS, v)


def tensor_from_ints(variance, values):
    return Tensor(DIM, variance, PARAMS, [C(v) for v in values])


small_tensors3 = st.lists(st.integers(-3, 3), min_size=DIM ** 3, max_size=DIM ** 3) \
    .map(lambda vals: tensor_from_ints("ddd", vals))


def test_trace_of_identity_is_dim():
    ident = Tensor.build(DIM, "ud", PARAMS,
                         lambda idx: C(1 if idx[0] == idx[1] else 0))
    out = tensor_contract(ident, 0, 1)
    assert out.rank == 0
    assert out[()] == C(DIM)


def test_contract_requires_metric_for_equal_variance():
    t = tensor_from_ints("dd", range(16))
    with pytest.raises(ValueError, match="metric"):
        tensor_contract(t, 0, 1)


def test_contract_rejects_metric_for_mixed_variance():
    ident = Tensor.build(DIM, "ud", PARAMS,
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


def test_arranged_matches_manual_loops():
    t = tensor_from_ints("ddd", [((2 * i - j + 3 * k) % 5) for i in range(DIM)
                                 for j in range(DIM) for k in range(DIM)])
    p = [[C(1 if abs(i - j) == 2 else 0) for j in range(DIM)] for i in range(DIM)]
    got = arranged(t, "Pz,x,Py", p)

    def apply_p(i):
        return (i + 2) % 4  # block swap in dimension four

    for idx in t.indices():
        x, y, z = idx
        assert got[x, y, z] == t[apply_p(z), x, apply_p(y)]


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
    t = Tensor.build(DIM, "dd", PARAMS,
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


def test_raise_lower_roundtrip():
    a = Scalar.parameter(PARAMS, "l2")
    one, zero = Scalar.one(PARAMS), Scalar.zero(PARAMS)
    g = [[one + a * a, a, zero, zero], [a, one, zero, zero],
         [zero, zero, one, zero], [zero, zero, zero, one]]
    ginv = mat_inv(g)
    t = tensor_from_ints("ddd", [(i * j + k) % 5 for i in range(DIM)
                                 for j in range(DIM) for k in range(DIM)])
    assert t.raise_slot(1, ginv).lower_slot(1, g) == t
