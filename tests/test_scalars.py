"""Canonical forms and field arithmetic of the exact scalar core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rptgeo import Scalar, parse_expression
from rptgeo.scalars import _is_const

PARAMS = ("l1", "l2", "l3", "l4")


def S(text):
    return parse_expression(text, PARAMS)


def test_zero_is_unique():
    assert S("0") == Scalar.zero(PARAMS)
    assert S("l1 - l1") == Scalar.zero(PARAMS)
    assert S("(l1 + l2)*(l1 - l2) - l1^2 + l2^2").is_zero


def test_polynomial_identity_canonicalizes():
    assert S("(l1+l2)*(l1-l2)") == S("l1^2 - l2^2")
    assert S("l1*l2 - l2*l1").is_zero


def test_substitute_paper_scalar():
    tau = S("-5/2*(l1^2 + l2^2 + l3^2 + l4^2)")
    assert tau.substitute({"l1": 1, "l2": 2, "l3": 3, "l4": 4}) == Fraction(-75)


def test_division_by_zero_scalar_raises():
    with pytest.raises(ZeroDivisionError):
        S("l1") / Scalar.zero(PARAMS)


def test_rational_function_cancellation():
    q = (S("l1^2 - l2^2")) / (S("l1 + l2"))
    assert q == S("l1 - l2")
    assert q.cden


def test_noncancelling_denominator_is_monic():
    q = S("l2") / (S("2*l1 + 2"))
    # denominator normalized to leading coefficient one
    assert str(q) == "(1/2*l2)/(l1 + 1)"
    assert (q * (S("l1") + 1)) == S("1/2*l2")


def test_nested_rational_arithmetic_cancels():
    a = Scalar.parameter(PARAMS, "l1")
    expr = (1 / (a + 1)) + (a / (a + 1))
    assert expr == Scalar.one(PARAMS)
    expr = 1 / (a ** 2 - 1) - 1 / ((a - 1) * (a + 1))
    assert expr.is_zero


def test_power_and_negative_exponent_rejected():
    a = Scalar.parameter(PARAMS, "l3")
    assert a ** 0 == Scalar.one(PARAMS)
    assert a ** 3 == a * a * a
    with pytest.raises(ValueError):
        a ** -1


def test_mixed_context_rejected():
    other = Scalar.parameter(("mu",), "mu")
    with pytest.raises(ValueError):
        Scalar.parameter(PARAMS, "l1") + other


@pytest.mark.parametrize("op, symbol", [(lambda x, s: x / s, "/"),
                                        (lambda x, s: x - s, "-"),
                                        (lambda x, s: s / x, "/"),
                                        (lambda x, s: s - x, "-")])
def test_unsupported_operand_raises_type_error(op, symbol):
    s = Scalar.constant((), 3)
    with pytest.raises(TypeError, match="for %s:" % symbol):
        op(1.5, s)


def test_substitution_pole_raises():
    a = Scalar.parameter(PARAMS, "l1")
    q = 1 / (a - 1)
    with pytest.raises(ZeroDivisionError):
        q.substitute({"l1": 1, "l2": 0, "l3": 0, "l4": 0})


# ---------------------------------------------------------------------------
# property tests

_consts = st.integers(min_value=-4, max_value=4).map(
    lambda n: Scalar.constant(PARAMS, n))
_atoms = st.sampled_from(PARAMS).map(lambda n: Scalar.parameter(PARAMS, n))


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
        st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
        st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
        children.map(lambda a: -a),
    )


scalars = st.recursive(st.one_of(_consts, _atoms), _combine, max_leaves=12)

# five fixed assignments with distinct prime values per parameter
_PRIME_POINTS = [
    {"l1": 2, "l2": 3, "l3": 5, "l4": 7},
    {"l1": 11, "l2": 13, "l3": 17, "l4": 19},
    {"l1": 23, "l2": 29, "l3": 31, "l4": 37},
    {"l1": 41, "l2": 43, "l3": 47, "l4": 53},
    {"l1": 59, "l2": 61, "l3": 67, "l4": 71},
]


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
def test_canonical_equality_matches_evaluation(e1, e2):
    same_everywhere = all(e1.substitute(pt) == e2.substitute(pt)
                          for pt in _PRIME_POINTS)
    assert (e1 - e2).is_zero == same_everywhere


@settings(max_examples=40, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + Scalar.zero(PARAMS) == a
    assert a * Scalar.one(PARAMS) == a
    assert (a - a).is_zero


@settings(max_examples=40, deadline=None)
@given(scalars, scalars)
def test_division_inverts_multiplication(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(scalars)
def test_print_parse_roundtrip(a):
    # every scalar built from +,-,* keeps a constant denominator, so its
    # canonical printing lies inside the parser grammar
    assert parse_expression(str(a), PARAMS) == a


_fractions = st.fractions(max_denominator=50).filter(lambda q: abs(q) < 100)


def _assert_kernel_invariants(s):
    zero = (0,) * len(s.params)
    assert s.is_zero == (not s.num)
    assert s.cden == _is_const(s.den)
    if s.cden:
        assert s.den == {zero: Fraction(1)}
    assert (s.value is not None) == (s.cden and _is_const(s.num))
    if s.value is not None:
        assert s.num == ({zero: s.value} if s.value else {})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(), PARAMS]), _fractions, _fractions)
def test_constant_arithmetic_matches_fractions(params, x, y):
    a, b = Scalar.constant(params, x), Scalar.constant(params, y)
    results = [(a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x),
               (x + b, x + y), (x - b, x - y), (x * b, x * y), (a - y, x - y)]
    if y:
        results += [(a / b, x / y), (x / b, x / y)]
    for s, expected in results:
        assert s == Scalar.constant(params, expected)
        assert s.value == expected
        _assert_kernel_invariants(s)


@settings(max_examples=60, deadline=None)
@given(_fractions, st.sampled_from(PARAMS))
def test_constant_with_parameter_matches_parsed_expression(x, name):
    c, p = Scalar.constant(PARAMS, x), Scalar.parameter(PARAMS, name)
    for s, text in ((c * p, "(%s)*%s" % (x, name)), (c + p, "(%s) + %s" % (x, name)),
                    (p - c, "%s - (%s)" % (name, x)), (p / (c + p), None)):
        _assert_kernel_invariants(s)
        if text is not None:
            assert s == S(text)
    assert (c + p).value is None
    assert (c * p).is_zero == (x == 0) == ((c * p).value is not None)


@settings(max_examples=40, deadline=None)
@given(scalars, scalars)
def test_kernel_invariants_hold_on_every_result(a, b):
    for s in (a, b, a + b, a - b, a * b, -a):
        _assert_kernel_invariants(s)
    if not b.is_zero:
        _assert_kernel_invariants(a / b)
