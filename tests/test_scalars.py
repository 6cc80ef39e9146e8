"""Canonical forms and field arithmetic of the exact scalar core."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from rptgeo import Scalar, parse_expression, scalars as kernel
from rptgeo.scalars import (MAX_DEGREE, _canonical_assoc, _dict_add, _dict_mul, _dict_neg,
                            _dict_scale, _divexact, _is_const, _poly_gcd)

from helpers import dict_eval, pack, packed, tuple_divexact, tuple_mul, unpacked

PARAMS = ("l1", "l2", "l3", "l4")


def S(text):
    return parse_expression(text, PARAMS)


def test_zero_is_unique():
    assert S("0") == Scalar.zero(PARAMS)
    assert S("l1 - l1") == Scalar.zero(PARAMS)
    assert S("(l1 + l2)*(l1 - l2) - l1^2 + l2^2").is_zero


@pytest.mark.parametrize("params", [(), ("t",), PARAMS])
def test_a_scalar_is_false_exactly_when_it_is_zero(params):
    third = Scalar.constant(params, Fraction(1, 3))
    assert not Scalar.zero(params) and not third - third
    assert Scalar.one(params) and third and Scalar.constant(params, -2)
    if params:
        x = Scalar.parameter(params, params[0])
        assert x and x + 1 and Scalar.one(params) / (x + 1)
        assert not x * (x + 1) - x * x - x


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
    # the denominator prints with leading coefficient one
    for num, den, printed in [("l2", "2*l1 + 2", "(1/2*l2)/(l1 + 1)"),
                              ("l2", "3*l1 + 6", "(1/3*l2)/(l1 + 2)"),
                              ("2/3*l1", "4*l1*l2 + 2", "(1/6*l1)/(l1*l2 + 1/2)"),
                              ("l1^2 - 1/4", "6*l1 + 3", "1/6*l1 - 1/12"),
                              ("5", "-2*l1 - 2*l2", "(-5/2)/(l1 + l2)"),
                              # the kernel orders terms by packed exponent, the
                              # last parameter most significant; printing orders
                              # them by graded-lex and divides by that leading
                              # coefficient of den, which may differ in sign
                              ("l1 + l2^2", "l2 + l1^2", "(l2^2 + l1)/(l1^2 + l2)"),
                              ("l1", "l2 - l1^2", "(-l1)/(l1^2 - l2)"),
                              ("l3", "2*l4 - 3*l1^2*l2", "(-1/3*l3)/(l1^2*l2 - 2/3*l4)")]:
        q = S(num) / S(den)
        assert str(q) == printed
        assert q * S(den) == S(num)


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


def test_a_power_past_the_exponent_cap_is_refused():
    a = Scalar.parameter(PARAMS, "l1")
    assert (a ** MAX_DEGREE).num == packed({(MAX_DEGREE, 0, 0, 0): 1})
    # the degree of num and den counts: (l1^2 / (l1 + 1))^k raises l1 to 2k
    assert (a * a / (a + 1)) ** 3 == a ** 6 / (a + 1) ** 3
    for base, k in [(a, MAX_DEGREE + 1), (a * a, MAX_DEGREE // 2 + 1), (1 / (a + 1), 70000),
                    (a * a / (a + 1), MAX_DEGREE // 2 + 1), (a, 5000000000)]:
        with pytest.raises(ValueError, match="power past degree 65536 in one parameter"):
            base ** k
    # a constant raises no parameter, and k = 1 raises nothing
    assert Scalar.constant(PARAMS, -1) ** (10 * MAX_DEGREE + 1) == -1
    assert (a ** MAX_DEGREE * a) ** 1 == a ** MAX_DEGREE * a


def test_a_context_has_at_most_64_parameters():
    params = tuple("p%d" % k for k in range(65))
    assert Scalar.parameter(params, "p63").num == {1 << (64 * 63): 1}
    with pytest.raises(ValueError, match="at most 64 parameters"):
        Scalar.parameter(params, "p64")


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


def test_fraction_that_cancels_to_a_polynomial_needs_no_gcd(monkeypatch):
    q = S("(1 + l1*l2)^2")
    x = S("l3") / q
    assert not x.cden

    def no_gcd(f, g):
        raise AssertionError("gcd on an exact quotient")

    monkeypatch.setattr(kernel, "_poly_gcd", no_gcd)
    assert (q * S("l4")) * x == S("l3*l4")
    assert ((q * S("l1")) / q) == S("l1")


def test_polynomials_over_one_add_and_multiply_without_cancelling(monkeypatch):
    # every polynomial over 1 is canonical, so _make returns it early: neither
    # the one cancellation nor a gcd runs
    a, b, k = S("l1^2 + 2*l2 - 3"), S("3*l3*l4 + l1"), S("-2")

    def refuse(*args):
        raise AssertionError("cancellation of a polynomial over 1")

    monkeypatch.setattr(kernel, "_canonical", refuse)
    monkeypatch.setattr(kernel, "_poly_gcd", refuse)
    results = [a + b, a - b, a * b, (a + b) * (a - b), a * k, a + k, k * b - a, a - a]
    monkeypatch.undo()
    expected = ["l1^2 + 2*l2 - 3 + 3*l3*l4 + l1", "l1^2 + 2*l2 - 3 - 3*l3*l4 - l1",
                "(l1^2 + 2*l2 - 3)*(3*l3*l4 + l1)", "(l1^2 + 2*l2 - 3)^2 - (3*l3*l4 + l1)^2",
                "-2*l1^2 - 4*l2 + 6", "l1^2 + 2*l2 - 5", "-6*l3*l4 - 2*l1 - l1^2 - 2*l2 + 3",
                "0"]
    assert results == [S(text) for text in expected]
    assert all(s.den is kernel._UNIT for s in results)


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


def _assert_rational(c):
    # an integral value is an int; no float ever reaches the kernel
    assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def _assert_kernel_invariants(s):
    # the canonical form: int coefficients only, den's leading coefficient
    # positive, content 1 over num and den together, a constant den is d > 0
    coeffs = list(s.num.values()) + list(s.den.values())
    assert all(type(c) is int and c for c in coeffs), (s.num, s.den)
    assert s.den[max(s.den)] > 0
    assert gcd(*coeffs) == 1
    assert s.is_zero == (not s.num)
    assert s.cden == _is_const(s.den)
    if s.cden:
        assert list(s.den) == [0]
    assert (s.value is not None) == (s.cden and _is_const(s.num))
    if s.value is not None:
        _assert_rational(s.value)
        assert s.value == Fraction(s.num.get(0, 0), s.den[0])


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
        if Fraction(expected).denominator == 1:
            assert s.den is kernel._UNIT


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
    zero = Scalar.zero(PARAMS)
    assert c - 0 is c and c - zero is c and p - 0 is p and p - zero is p
    assert (c * p).is_zero == (x == 0) == ((c * p).value is not None)


def _quotients(children):
    return st.one_of(_combine(children), st.tuples(children, children).map(
        lambda ab: ab[0] if ab[1].is_zero else ab[0] / ab[1]))


# rational constants and quotients, so coefficients pass through Fraction
rational_scalars = st.recursive(
    st.one_of(_fractions.map(lambda q: Scalar.constant(PARAMS, q)), _atoms),
    _quotients, max_leaves=6)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(scalars, scalars),
                 st.tuples(rational_scalars, rational_scalars)))
def test_kernel_invariants_hold_on_every_result(ab):
    a, b = ab
    for s in (a, b, a + b, a - b, a * b, -a):
        _assert_kernel_invariants(s)
    if not b.is_zero:
        _assert_kernel_invariants(a / b)


_param_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(PARAMS)),
                               st.integers(-6, 6).filter(bool), max_size=3).map(packed)


@st.composite
def _raw_quotients(draw):
    """(num, den) dicts that share a factor: den with a negative leading
    coefficient, den a negative constant, or num empty."""
    kind = draw(st.sampled_from(["negative leading", "negative constant", "empty num"]))
    common = draw(_param_polys.filter(bool))
    num = {} if kind == "empty num" else _dict_mul(draw(_param_polys), common)
    if kind == "negative constant":
        return num, {pack((0,) * len(PARAMS)): -draw(st.integers(1, 12))}
    den = _dict_mul(draw(_param_polys.filter(bool)), common)
    return num, den if den[max(den)] < 0 else _dict_neg(den)


@settings(max_examples=80, deadline=None)
@given(_raw_quotients(), st.lists(st.tuples(*[st.fractions(-5, 5, max_denominator=7)]
                                            * len(PARAMS)), min_size=3, max_size=3))
def test_make_is_canonical_on_signed_and_empty_quotients(quotient, points):
    num, den = quotient
    before = dict(num), dict(den)
    s = Scalar._make(PARAMS, num, den)
    assert (num, den) == before  # the inputs are not mutated
    _assert_kernel_invariants(s)
    if not num:
        assert s.is_zero
    # Schwartz-Zippel: a wrong quotient shows at random points off the poles
    for vec in points:
        at = dict_eval(den, list(vec))
        if at:
            assert s.substitute(dict(zip(PARAMS, vec))) == dict_eval(num, list(vec)) / at


_nonconstant = scalars.filter(lambda q: not q.is_constant)
_points = st.fixed_dictionaries(
    {name: st.fractions(min_value=-20, max_value=20, max_denominator=20)
     for name in PARAMS})


@settings(max_examples=40, deadline=None)
@given(scalars, _nonconstant, scalars)
def test_common_factor_cancels(p, q, r):
    assume(not r.is_zero)
    assert (p * q) / (q * r) == p / r
    assert (p * q) / q == p


_denominators = st.sampled_from(["1 + l1*l2", "(1 + l1*l2)^2",
                                 "l1^2 + l2^2 + 1", "2*l3 - l4"]).map(S)


@settings(max_examples=40, deadline=None)
@given(scalars, scalars, _denominators, st.sampled_from([-1, 1, 2, Fraction(1, 2)]),
       st.lists(_points, min_size=3, max_size=3))
def test_sum_over_equal_denominators_matches_evaluation(a, b, q, c, points):
    # a*q + 1 and b*q + c are prime to q, so x and y keep q's denominator
    x, y = (a * q + 1) / q, (b * q + c) / q
    assert _canonical_assoc(x.den) == _canonical_assoc(y.den) and not x.cden
    total = x + y
    _assert_kernel_invariants(total)
    assert total == (a + b) + (1 + c) / q
    # Schwartz-Zippel: a wrong numerator shows at random points off the poles
    for pt in points:
        qv = q.substitute(pt)
        if qv:
            expected = (a.substitute(pt) + b.substitute(pt)) + (1 + c) / qv
            assert total.substitute(pt) == expected


# ---------------------------------------------------------------------------
# the integer kernel: exact division and gcd over Z

_tuple_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                               st.integers(-6, 6).filter(bool), min_size=1, max_size=4)
_int_polys = _tuple_polys.map(packed)
_nonconstant_polys = _int_polys.filter(lambda a: not _is_const(a))


def _is_primitive(a):
    return gcd(*a.values()) == 1 and a[max(a)] > 0


@settings(max_examples=60, deadline=None)
@given(_int_polys, _nonconstant_polys, st.integers(-5, 5).filter(bool))
def test_divexact_recovers_the_cofactor_of_a_primitive_divisor(f, d, c):
    d = _canonical_assoc(d)
    assert _divexact(_dict_mul(f, d), d) == f
    assert _divexact(_dict_scale(_dict_mul(f, d), c), d) == _dict_scale(f, c)
    # f*d + c leaves the remainder c of degree 0 < deg d
    with pytest.raises(ArithmeticError):
        _divexact(_dict_add(_dict_mul(f, d), {pack((0, 0, 0)): c}), d)


def test_divexact_raises_on_a_non_integral_quotient_term():
    # x / (2x + 1) would start with the term 1/2: by Gauss's lemma the
    # primitive 2x + 1 does not divide x
    with pytest.raises(ArithmeticError):
        _divexact(packed({(1, 0): 1}), packed({(1, 0): 2, (0, 0): 1}))
    # x*y / (x^2 + 1) and y / (x + 1): the packed exponents differ by a
    # positive int, but x's field borrows and sets its guard bit
    for f, d in [({(1, 1): 1}, {(2, 0): 1, (0, 0): 1}), ({(0, 1): 1}, {(1, 0): 1, (0, 0): 1})]:
        assert max(packed(f)) > max(packed(d))
        with pytest.raises(ArithmeticError):
            _divexact(packed(f), packed(d))


@settings(max_examples=60, deadline=None)
@given(_int_polys, _int_polys, _int_polys)
def test_poly_gcd_is_primitive_and_divides_both(a, b, c):
    f, g = _dict_mul(a, c), _dict_mul(b, c)
    h = _poly_gcd(f, g)
    assert _is_primitive(h)
    _divexact(f, h)
    _divexact(g, h)
    # the common factor c divides the gcd
    _divexact(h, _canonical_assoc(c))


# exponents at the cap, so a packed field that carried or borrowed would show
_wide_polys = st.dictionaries(st.tuples(*[st.sampled_from([0, 1, 2, MAX_DEGREE])] * 3),
                              st.integers(-6, 6).filter(bool), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(_tuple_polys, _tuple_polys), st.tuples(_wide_polys, _wide_polys)))
def test_packed_product_and_quotient_decode_to_the_tuple_reference(ab):
    a, c = ab
    d = unpacked(_canonical_assoc(packed(c)), 3)  # primitive
    f = tuple_mul(a, d)
    assert unpacked(_dict_mul(packed(a), packed(d)), 3) == f
    assert unpacked(_divexact(packed(f), packed(d)), 3) == tuple_divexact(f, d) == a
    # 2f + 1, which no non-constant d divides, fails on both
    g = tuple_mul(f, {(0, 0, 0): 2})
    g[(0, 0, 0)] = g.get((0, 0, 0), 0) + 1
    if d != {(0, 0, 0): 1}:
        for divexact, pf, pd in [(tuple_divexact, g, d), (_divexact, packed(g), packed(d))]:
            with pytest.raises(ArithmeticError):
                divexact(pf, pd)


@settings(max_examples=60, deadline=None)
@given(_tuple_polys, _tuple_polys, _tuple_polys)
def test_packed_gcd_decodes_to_a_common_divisor_of_the_tuple_reference(a, b, c):
    f, g = tuple_mul(a, c), tuple_mul(b, c)
    h = unpacked(_poly_gcd(packed(f), packed(g)), 3)
    # the reference divides f and g by h, and h by c's primitive part
    for x in (f, g):
        assert tuple_mul(tuple_divexact(x, h), h) == x
    tuple_divexact(h, unpacked(_canonical_assoc(packed(c)), 3))


@settings(max_examples=40, deadline=None)
@given(rational_scalars, rational_scalars)
def test_equal_scalars_from_different_routes_hash_equal(a, b):
    routes = [a, a + b - b, -(-a)]
    if not b.is_zero:
        routes += [(a * b) / b, (a / b) * b]
    if a.cden:
        routes.append(parse_expression(str(a), PARAMS))
    for r in routes:
        assert r == a and hash(r) == hash(a)


def test_cancelled_quotient_equals_its_parse():
    q = S("l1^2 - 1/4") / S("6*l1 + 3")
    direct = S("1/6*l1 - 1/12")
    assert q == direct and hash(q) == hash(direct)
    assert q.num == packed({(1, 0, 0, 0): 2, (0, 0, 0, 0): -1})
    assert q.den == packed({(0, 0, 0, 0): 12})


# ints, Fractions, and constant and non-constant Scalars of two contexts,
# so that equal values meet across types and contexts
_hashables = st.one_of(
    st.integers(-3, 3), _fractions,
    st.tuples(st.sampled_from([(), PARAMS]), _fractions).map(lambda pq: Scalar.constant(*pq)),
    rational_scalars)


@settings(max_examples=200, deadline=None)
@given(_hashables, _hashables)
def test_equal_values_hash_equal_across_ints_fractions_and_scalars(a, b):
    if a == b:
        assert hash(a) == hash(b)
    # a constant Scalar is found by its value in a set or a dict, and back
    for s in (a, b):
        if isinstance(s, Scalar) and s.is_constant:
            assert s.value in {s} and s in {s.value: None}


def test_a_constant_scalar_hashes_as_its_value():
    assert 0 in {Scalar.zero(())}
    assert {3: "x"}.get(Scalar.constant(("a",), 3)) == "x"
    assert {Fraction(1, 2): "h"}.get(Scalar.constant(PARAMS, Fraction(1, 2))) == "h"
