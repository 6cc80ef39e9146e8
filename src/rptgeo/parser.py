"""Recursive-descent parser for the expression grammar of spec files.

Grammar: integer literals, parameter names, ``+ - * / ^`` and parentheses.
Literals are ASCII decimal digits within the interpreter's int-string limit,
and parentheses nest at most ``MAX_DEPTH`` deep.
``^`` takes a nonnegative integer exponent; a power raises no parameter
past ``scalars.MAX_DEGREE`` and a power of a sum has degree at most
``MAX_POWER_DEGREE``.  A product of sums, or a power of a sum, may
have at most ``MAX_TERMS`` terms before cancellation: len(a)*len(b) for a
product, C(k+t-1, t-1) for a t-term sum to the k, checked before the
product or power expands.  ``/`` is only legal with a nonzero constant
divisor (rational literals like ``-3/2`` fall out of that rule).  A parsed
value prints within the int-string limit, and canonical printing, which
puts exponents on single parameters only, reparses to the same value.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, log10

from .scalars import DegreeLimitError, PrintLimitError, Scalar, _exponents


class ParseError(ValueError):
    """Raised for malformed expressions; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s at position %d" % (message, position + 1))
        self.position = position


_OPS = set("+-*/^()")
_DIGITS = set("0123456789")
MAX_DEPTH = 100
MAX_POWER_DEGREE = 16
MAX_TERMS = 1000
_LOG10_2 = log10(2)


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # longer than the int-string limit
                raise ParseError("integer literal of %d digits is too long" % (j - i),
                                 i) from None
            tokens.append(("int", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character '%s'" % ch, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, params: tuple):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.params = params
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError("expected '%s'" % kind, tok[2])
        return self.advance()

    def bound_terms(self, left: int, right: int, at: int):
        """Refuse a left-term sum times up to right terms (a power of a sum
        when left = 1) that may expand past MAX_TERMS terms."""
        if left * right > MAX_TERMS:
            raise ParseError("%s of up to %d terms, above %d" % (
                "product of sums" if left > 1 else "power of a sum", left * right,
                MAX_TERMS), at)

    def parse(self) -> Scalar:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected trailing input", tok[2])
        if _past_the_limit(value):
            raise ParseError("value past the int-string limit", 0)
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Scalar:
        value = self.unary()
        while self.peek()[0] in "*/":
            op, _, at = self.advance()
            # a sum on the left bounds a power on the right before it expands
            left = len(value.num) if op == "*" else 1
            rhs = self.unary(left)
            if op == "*":
                if left > 1 and len(rhs.num) > 1:
                    self.bound_terms(left, len(rhs.num), at)
                value = value * rhs
            else:
                if not rhs.is_constant:
                    raise ParseError("division by a non-constant expression", at)
                if rhs.is_zero:
                    raise ParseError("division by zero", at)
                value = value / rhs
        return value

    def unary(self, left: int = 1) -> Scalar:
        signs = 0
        while self.peek()[0] in "+-":
            if self.advance()[0] == "-":
                signs ^= 1
        value = self.power(left)
        return -value if signs else value

    def power(self, left: int = 1) -> Scalar:
        value = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            self.advance()
            k, t = tok[1], len(value.num)
            if t > 1:
                degree = max(map(sum, _exponents(value.num, len(self.params))))
                if k * degree > MAX_POWER_DEGREE:
                    raise ParseError("power of a sum above degree %d" % MAX_POWER_DEGREE,
                                     tok[2])
                # a t-term sum to the k has at most C(k+t-1, t-1) terms
                self.bound_terms(left, comb(k + t - 1, t - 1), tok[2])
            # |c|^k has over k*(bits - 1) bits, and 4 bits per digit exceed
            # log2(10); c runs over the true coefficients n/d, not num's ints
            bound = 4 * (sys.get_int_max_str_digits() or float("inf"))
            d, = value.den.values()  # a parsed value is a polynomial
            if any(k * (max(abs(c.numerator), c.denominator).bit_length() - 1) > bound
                   for c in (Fraction(n, d) for n in value.num.values())):
                raise ParseError("power past the int-string limit", tok[2])
            try:
                value = value ** k
            except DegreeLimitError as exc:
                raise ParseError(str(exc), tok[2]) from None
        return value

    def atom(self) -> Scalar:
        kind, value, at = self.advance()
        if kind == "int":
            return Scalar.constant(self.params, value)
        if kind == "name":
            if value not in self.params:
                raise ParseError("unknown parameter '%s'" % value, at)
            return Scalar.parameter(self.params, value)
        if kind == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError("parentheses nested deeper than %d" % MAX_DEPTH, at)
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.expect(")")
            return value
        raise ParseError("expected a literal, parameter or '('", at)


def _past_the_limit(value: Scalar) -> bool:
    """Whether printing value, a polynomial over a constant den, needs an
    integer past the int-string limit.  It prints the numerators and
    denominators of the reduced coefficients, which num's ints and den
    bound, and the sum of their bit lengths bounds the longest.  The
    longest, of b bits, has more than (b - 1) log10 2 and at most
    b log10 2 + 1 digits, which decides all but an integer within a digit of
    the limit, and only then is value printed."""
    limit, nums = sys.get_int_max_str_digits(), value.num.values()
    if not (limit and nums):
        return False
    d = value.den[0]
    if sum(map(int.bit_length, nums), d.bit_length()) * _LOG10_2 <= limit - 1:
        return False
    digits = _LOG10_2 * max(map(int.bit_length, (
        x for c in (Fraction(n, d) for n in nums) for x in (c.numerator, c.denominator))))
    if digits - _LOG10_2 > limit + 1:
        return True
    if digits > limit - 1:
        try:
            str(value)
        except PrintLimitError:
            return True
    return False


def parse_expression(text: str, params) -> Scalar:
    """Parse ``text`` into a canonical Scalar over the given parameter names."""
    return _Parser(text, tuple(params)).parse()
