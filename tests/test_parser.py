"""Grammar coverage and error reporting of the expression parser."""

import sys
import time
from fractions import Fraction

import pytest

from rptgeo import ParseError, Scalar, parse_expression
from rptgeo.parser import MAX_DEPTH, MAX_POWER_DEGREE, MAX_TERMS

PARAMS = ("l1", "l2", "l3", "l4")


def test_zero_literal():
    assert parse_expression("0", PARAMS) == Scalar.zero(PARAMS)


def test_paper_table_entry():
    got = parse_expression("l1^2 + l2^2", PARAMS)
    l1 = Scalar.parameter(PARAMS, "l1")
    l2 = Scalar.parameter(PARAMS, "l2")
    assert got == l1 * l1 + l2 * l2


def test_forced_cancellation():
    assert parse_expression("(l1 - l1)", PARAMS).is_zero


def test_rational_literals():
    assert parse_expression("-3/2", PARAMS) == Scalar.constant(PARAMS, Fraction(-3, 2))
    assert parse_expression("3/2*l1", PARAMS) == \
        Scalar.parameter(PARAMS, "l1") * Fraction(3, 2)


def test_constant_divisor_of_expression():
    got = parse_expression("(l1 + l2)/2", PARAMS)
    want = (Scalar.parameter(PARAMS, "l1") + Scalar.parameter(PARAMS, "l2")) \
        * Fraction(1, 2)
    assert got == want


def test_precedence_and_unary_minus():
    assert parse_expression("-l1^2", PARAMS) == \
        -(Scalar.parameter(PARAMS, "l1") ** 2)
    assert parse_expression("2*l1 + 3*l2*l3", PARAMS) == \
        parse_expression("l1*2 + l3*3*l2", PARAMS)
    assert parse_expression("-(l1 - l2)", PARAMS) == \
        parse_expression("l2 - l1", PARAMS)


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_expression("l1 + * l2", PARAMS)
    assert err.value.position == 5


def test_unknown_parameter():
    with pytest.raises(ParseError, match="unknown parameter 'mu'"):
        parse_expression("l1 + mu", PARAMS)


def test_division_by_nonconstant():
    with pytest.raises(ParseError, match="non-constant"):
        parse_expression("1/l1", PARAMS)


def test_division_by_zero():
    with pytest.raises(ParseError, match="division by zero"):
        parse_expression("l1/(2 - 2)", PARAMS)


def test_bad_exponent():
    with pytest.raises(ParseError):
        parse_expression("l1^-2", PARAMS)
    with pytest.raises(ParseError):
        parse_expression("l1^l2", PARAMS)


def test_trailing_garbage():
    with pytest.raises(ParseError, match="trailing"):
        parse_expression("l1 l2", PARAMS)


def test_unclosed_paren():
    with pytest.raises(ParseError):
        parse_expression("(l1 + l2", PARAMS)


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_expression("l1 @ l2", PARAMS)
    assert err.value.position == 3


@pytest.mark.parametrize("text", ["\u00b2", "1\u0661", "l1^\u0662"])
def test_only_ascii_digits_are_literals(text):
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression(text, PARAMS)


def test_literal_past_the_int_string_limit():
    with pytest.raises(ParseError, match="5000 digits") as err:
        parse_expression("l1 + " + "7" * 5000, PARAMS)
    assert err.value.position == 5


def test_nesting_depth_is_bounded():
    deepest = "(" * MAX_DEPTH + "l1" + ")" * MAX_DEPTH
    assert parse_expression(deepest, PARAMS) == Scalar.parameter(PARAMS, "l1")
    with pytest.raises(ParseError, match="nested deeper") as err:
        parse_expression("(" + deepest + ")", PARAMS)
    assert err.value.position == MAX_DEPTH


def test_power_of_a_sum_is_bounded_by_its_degree():
    # the exponent times the base degree is bounded, so nesting cannot escape
    assert parse_expression("(l1 + l2)^%d" % MAX_POWER_DEGREE, PARAMS) == \
        (Scalar.parameter(PARAMS, "l1") + Scalar.parameter(PARAMS, "l2")) ** MAX_POWER_DEGREE
    for text, position in (("(l1+l2+l3)^60", 11), ("((l1 + l2)^4)^5", 14),
                           ("(l1*l2 + 1)^9", 12)):
        with pytest.raises(ParseError, match="power of a sum") as err:
            parse_expression(text, PARAMS)
        assert err.value.position == position


def test_largest_power_of_a_four_term_sum_parses():
    assert len(parse_expression("(l1+l2+l3+l4)^16", PARAMS).num) == 969


@pytest.mark.parametrize("text, params, message, position", [
    ("(l1+l2+l3+l4)^16*(l1+l2+l3+l4)^16", PARAMS, "product of sums", 31),
    ("(l1+l2+l3+l4)^16*(l1+l2+l3+l4)^16*(l1+l2+l3+l4)^16", PARAMS, "product of sums", 31),
    ("(p0+p1+p2+p3+p4+p5)^16", tuple("p%d" % k for k in range(6)), "power of a sum", 20)],
    ids=["two-factors", "three-factors", "six-parameters"])
def test_products_and_powers_of_sums_are_bounded_by_their_terms(text, params, message,
                                                                position):
    # a t-term sum to the k may have C(k+t-1, t-1) terms, within the degree
    # bound; a sum on the left of a product multiplies that before expansion
    start = time.perf_counter()
    with pytest.raises(ParseError, match="%s of up to \\d+ terms, above %d"
                       % (message, MAX_TERMS)) as err:
        parse_expression(text, params)
    assert time.perf_counter() - start < 0.5
    assert err.value.position == position


_PAST_THE_LIMIT = {
    "2^20000": "power past the int-string limit at position 3",
    "(2^1000)^1000": "power past the int-string limit at position 10",
    "2^14000*2^14000": "value past the int-string limit at position 1",
    "(3*l1)^20000": "power past the int-string limit at position 8",
    # the power guard bounds the coefficient 1/1024, not only its numerator
    "(l1/1024)^20000": "power past the int-string limit at position 11",
}


@pytest.mark.parametrize("text", list(_PAST_THE_LIMIT))
def test_values_that_print_past_the_int_string_limit_are_parse_errors(text):
    with pytest.raises(ParseError) as err:
        parse_expression(text, PARAMS)
    assert str(err.value) == _PAST_THE_LIMIT[text]


@pytest.fixture
def prints(monkeypatch):
    """The Scalars printed while the test runs."""
    printed, original = [], Scalar.__str__

    def counting_str(self):
        printed.append(self)
        return original(self)

    monkeypatch.setattr(Scalar, "__str__", counting_str)
    return printed


@pytest.fixture
def limit_640():
    """The int-string limit at its least nonzero value, 640 digits."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("text, past, near", [
    ("1/2 + 3*l1^2", False, False),
    ("9" * 640, False, True),  # 640 digits: at the limit, decided by printing
    ("10^639", False, True),
    ("10^639*10", True, True),  # 641 digits: one past the limit
    ("10^640/10", False, True),
    # a coefficient prints reduced: 10^640 over 10 prints 640 digits
    ("(10^640*l1 + l2)/10", False, True),
    ("1/" + "7" * 640, False, True),
    ("2^1000 + l1", False, False),
    ("10^320*10^320*10^320", True, False),  # far past: decided without printing
])
def test_the_int_string_limit_is_decided_from_bit_lengths(text, past, near, limit_640,
                                                         prints):
    if past:
        with pytest.raises(ParseError, match="^value past the int-string limit at position 1$"):
            parse_expression(text, PARAMS)
    else:
        assert str(parse_expression(text, PARAMS))
    assert len(prints) == near + (not past)


def test_no_limit_prints_nothing(prints):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        value = parse_expression("2^14000*2^14000", PARAMS)
    finally:
        sys.set_int_max_str_digits(saved)
    assert value == Scalar.constant(PARAMS, 2 ** 28000) and not prints


@pytest.mark.parametrize("text, position", [
    ("l1^65537", 4),
    ("(l2^2)^32769", 8),
    ("(l1*l2^3)^30000", 11),
    ("(2*l4/(1 - 3))^70000", 16),
    ("(l1^%s)^%s" % ("9" * 4000, "9" * 4000), 5),
])
def test_a_power_past_the_exponent_cap_is_a_parse_error(text, position):
    # a power raises no parameter past MAX_DEGREE, so a packed exponent never
    # spills into the next parameter's field
    with pytest.raises(ParseError, match="power past degree 65536 in one parameter") as err:
        parse_expression(text, PARAMS)
    assert err.value.position == position - 1


def test_single_term_powers_stay_exact():
    # canonical printing puts exponents on single parameters only
    value = parse_expression("-3*l1^200*l2 + 2^1000", PARAMS)
    assert value == Scalar.parameter(PARAMS, "l1") ** 200 \
        * Scalar.parameter(PARAMS, "l2") * -3 + 2 ** 1000
    assert parse_expression(str(value), PARAMS) == value
    assert parse_expression("(-1)^" + "9" * 4000, PARAMS) == Scalar.constant(PARAMS, -1)
    # the exponent cap bounds a power, not a product of capped powers
    l1 = Scalar.parameter(PARAMS, "l1")
    assert parse_expression("l1^65536*l1^65536", PARAMS) == l1 ** 65536 * l1 ** 65536


def test_print_then_reparse_canonical():
    text = "-5/2*l1^2 - 5/2*l2^2 - 5/2*l3^2 - 5/2*l4^2"
    value = parse_expression(text, PARAMS)
    assert str(value) == text
    assert parse_expression(str(value), PARAMS) == value
