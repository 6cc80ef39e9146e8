"""Exact rational-function arithmetic over a declared tuple of parameters.

A polynomial is a dict mapping exponent tuples (aligned with the parameter
tuple) to nonzero coefficients: an int when integral, else a Fraction, never
a float.  A Scalar is a reduced quotient of two polynomials; the denominator
is monic under graded-lex order, so every rational function has exactly one
representation and equality is literal.

Three fields are set once, when a Scalar is built: ``cden`` (the denominator
is constant), ``is_zero`` (the numerator is empty) and ``value`` (the int or
Fraction when the Scalar is constant, else None).  Like an int, a Scalar is
false exactly when it is zero.  A constant denominator is always the unit
``{(0, ..., 0): 1}``.  Constant operands are added, multiplied and divided on
``value`` directly, and the result shares the operand's unit denominator
dict; a zero operand skips the arithmetic.  Sums over equal denominators add
numerators only, and a quotient is first tried as an exact polynomial
division: gcd runs only on a true fraction.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Mapping, Union

Rat = Union[int, Fraction]

# ---------------------------------------------------------------------------
# raw polynomial dictionaries


def _grlex(expo: tuple) -> tuple:
    return (sum(expo), expo)


def _rat(q: Rat) -> Rat:
    """q as an int when it is integral."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


def _quotient(a: Rat, b: Rat) -> Rat:
    """a / b exactly, as an int when it is integral."""
    return _rat(Fraction(a, b))


def _dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = _rat(s)
        elif e in out:
            del out[e]
    return out


def _dict_neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _dict_sub(a: dict, b: dict) -> dict:
    return _dict_add(a, _dict_neg(b))


def _dict_mul(a: dict, b: dict) -> dict:
    if len(a) == 1 and len(b) == 1:
        (ea, ca), = a.items()
        (eb, cb), = b.items()
        v = ca * cb
        if not v:
            return {}
        return {tuple(x + y for x, y in zip(ea, eb)): _rat(v)}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    for e, c in out.items():
        if type(c) is not int and c.denominator == 1:
            out[e] = c.numerator
    return out


def _dict_scale(a: dict, c: Rat) -> dict:
    if not c:
        return {}
    if c == 1:
        return a
    return {e: _rat(v * c) for e, v in a.items()}


def _leading(a: dict) -> tuple:
    return max(a, key=_grlex)


def _is_const(a: dict) -> bool:
    return not a or (len(a) == 1 and not any(next(iter(a))))


def _const_value(a: dict) -> Rat:
    return next(iter(a.values()), 0)


# --- multivariate gcd (primitive PRS), used only to cancel true fractions ---


def _deg_in(a: dict, v: int) -> int:
    return max((e[v] for e in a), default=-1)


def _coeff_wrt(a: dict, v: int, k: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[v] == k:
            out[e[:v] + (0,) + e[v + 1:]] = c
    return out


def _shift(a: dict, v: int, k: int) -> dict:
    return {e[:v] + (e[v] + k,) + e[v + 1:]: c for e, c in a.items()}


def _divexact(f: dict, d: dict) -> dict:
    # peels leading terms under graded-lex; raises ArithmeticError as soon as
    # a leading term is not a multiple of lead(d), which happens exactly
    # when d does not divide f
    if not f:
        return {}
    lead_d = _leading(d)
    cd = d[lead_d]
    quo: dict = {}
    rem = dict(f)
    while rem:
        lead_r = _leading(rem)
        qe = tuple(r - s for r, s in zip(lead_r, lead_d))
        if any(x < 0 for x in qe):
            raise ArithmeticError("inexact polynomial division")
        qc = _quotient(rem[lead_r], cd)
        quo[qe] = qc
        rem = _dict_sub(rem, _dict_mul({qe: qc}, d))
    return quo


def _prem(f: dict, g: dict, v: int) -> dict:
    # pseudo-remainder of f by g in the variable v
    dg = _deg_in(g, v)
    lg = _coeff_wrt(g, v, dg)
    r = f
    while r and _deg_in(r, v) >= dg:
        dr = _deg_in(r, v)
        lr = _coeff_wrt(r, v, dr)
        r = _dict_sub(_dict_mul(lg, r), _dict_mul(_shift(lr, v, dr - dg), g))
    return r


def _content_wrt(a: dict, v: int) -> dict:
    cont: dict = {}
    for k in range(_deg_in(a, v) + 1):
        co = _coeff_wrt(a, v, k)
        if co:
            cont = _poly_gcd(cont, co)
            if _is_const(cont):
                break
    return cont


def _primitive_wrt(a: dict, v: int) -> dict:
    cont = _content_wrt(a, v)
    if _is_const(cont):
        return _canonical_assoc(a)
    return _divexact(a, cont)


def _canonical_assoc(a: dict) -> dict:
    # integer-primitive with positive leading coefficient
    if not a:
        return {}
    den_lcm = _int_lcm(*(c.denominator for c in a.values()))
    num_gcd = _int_gcd(*(c.numerator * (den_lcm // c.denominator) for c in a.values()))
    scale = _quotient(den_lcm, num_gcd)
    if a[_leading(a)] < 0:
        scale = -scale
    return _dict_scale(a, scale)


def _poly_gcd(f: dict, g: dict) -> dict:
    if not f:
        return _canonical_assoc(g)
    if not g:
        return _canonical_assoc(f)
    if _is_const(f) or _is_const(g):
        return {(0,) * len(_leading(f or g)): 1}
    nvars = len(_leading(f))
    v = next(i for i in range(nvars) if _deg_in(f, i) > 0 or _deg_in(g, i) > 0)
    if _deg_in(f, v) == 0:
        return _poly_gcd(f, _content_wrt(g, v))
    if _deg_in(g, v) == 0:
        return _poly_gcd(_content_wrt(f, v), g)
    cf, cg = _content_wrt(f, v), _content_wrt(g, v)
    c = _poly_gcd(cf, cg)
    pf = f if _is_const(cf) else _divexact(f, cf)
    pg = g if _is_const(cg) else _divexact(g, cg)
    if _deg_in(pf, v) < _deg_in(pg, v):
        pf, pg = pg, pf
    while pg:
        r = _prem(pf, pg, v)
        pf, pg = pg, (_primitive_wrt(r, v) if r else {})
    return _canonical_assoc(_dict_mul(c, _primitive_wrt(pf, v)))


# ---------------------------------------------------------------------------
# Scalar


class PrintLimitError(ValueError):
    """A Scalar cannot print: it holds an integer past the int-string limit."""


class Scalar:
    """Exact rational function in the parameters of its context."""

    __slots__ = ("params", "num", "den", "cden", "value", "is_zero")

    def __init__(self, params: tuple, num: dict, den: dict):
        self.params = params
        self.num = num
        self.den = den
        self.cden = _is_const(den)
        self.is_zero = not num
        self.value = _const_value(num) if self.cden and _is_const(num) else None

    # construction ---------------------------------------------------------

    @classmethod
    def constant(cls, params: tuple, value: Rat) -> "Scalar":
        if type(value) is not int:
            value = Fraction(value)
        return cls._of_value(params, value, {(0,) * len(params): 1})

    @classmethod
    def _of_value(cls, params: tuple, value: Rat, unit: dict) -> "Scalar":
        """The constant value, reusing the unit denominator of an operand."""
        value = _rat(value)
        s = object.__new__(cls)
        s.params = params
        s.den = unit
        s.cden = True
        s.value = value
        if value:
            s.num = dict.fromkeys(unit, value)
            s.is_zero = False
        else:
            s.num = {}
            s.is_zero = True
        return s

    @classmethod
    def zero(cls, params: tuple) -> "Scalar":
        return cls.constant(params, 0)

    @classmethod
    def one(cls, params: tuple) -> "Scalar":
        return cls.constant(params, 1)

    @classmethod
    def parameter(cls, params: tuple, name: str) -> "Scalar":
        idx = params.index(name)
        expo = tuple(1 if i == idx else 0 for i in range(len(params)))
        return cls(params, {expo: 1}, {(0,) * len(params): 1})

    @classmethod
    def _make(cls, params: tuple, num: dict, den: dict) -> "Scalar":
        unit = {(0,) * len(params): 1}
        if not num:
            return cls(params, {}, unit)
        if _is_const(den):
            c = _const_value(den)
            if not c:
                raise ZeroDivisionError("zero denominator")
            return cls(params, _dict_scale(num, _quotient(1, c)), unit)
        try:
            return cls(params, _divexact(num, den), unit)
        except ArithmeticError:
            pass
        g = _poly_gcd(num, den)
        if not _is_const(g):
            num, den = _divexact(num, g), _divexact(den, g)
            if _is_const(den):
                return cls._make(params, num, den)
        inv = _quotient(1, den[_leading(den)])
        return cls(params, _dict_scale(num, inv), _dict_scale(den, inv))

    # predicates -----------------------------------------------------------

    def __bool__(self) -> bool:
        return not self.is_zero

    @property
    def is_constant(self) -> bool:
        return self.value is not None

    def constant_value(self) -> Rat:
        if self.value is None:
            raise ValueError("scalar is not constant: %s" % self)
        return self.value

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.params is not self.params and other.params != self.params:
                raise ValueError("scalars come from different parameter contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.constant(self.params, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero:
            return self
        if self.is_zero:
            return o
        if self.value is not None and o.value is not None:
            return Scalar._of_value(self.params, self.value + o.value, self.den)
        if self.cden and o.cden:
            return Scalar(self.params, _dict_add(self.num, o.num), self.den)
        if self.den == o.den:
            return Scalar._make(self.params, _dict_add(self.num, o.num), self.den)
        num = _dict_add(_dict_mul(self.num, o.den), _dict_mul(o.num, self.den))
        return Scalar._make(self.params, num, _dict_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        if self.value is not None:
            return Scalar._of_value(self.params, -self.value, self.den)
        return Scalar(self.params, _dict_neg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero:
            return self
        if self.value is not None and o.value is not None:
            return Scalar._of_value(self.params, self.value - o.value, self.den)
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return self
        if o.is_zero:
            return o
        if self.value is not None and o.value is not None:
            return Scalar._of_value(self.params, self.value * o.value, self.den)
        if self.cden and o.cden:
            return Scalar(self.params, _dict_mul(self.num, o.num), self.den)
        return Scalar._make(self.params, _dict_mul(self.num, o.num),
                            _dict_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero scalar")
        if self.is_zero:
            return self
        if self.value is not None and o.value is not None:
            return Scalar._of_value(self.params, Fraction(self.value, o.value),
                                    self.den)
        return Scalar._make(self.params, _dict_mul(self.num, o.den),
                            _dict_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Scalar.one(self.params)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # equality / hashing ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.value == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.params == other.params and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.params, frozenset(self.num.items()),
                     frozenset(self.den.items())))

    # evaluation ------------------------------------------------------------

    def substitute(self, values: Mapping[str, Rat]) -> Fraction:
        """Evaluate at rational values given for every parameter."""
        vec = [Fraction(values[name]) for name in self.params]

        def ev(terms: dict) -> Fraction:
            total = Fraction(0)
            for e, c in terms.items():
                m = c
                for val, k in zip(vec, e):
                    if k:
                        m *= val ** k
                total += m
            return total

        den = ev(self.den)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the given values")
        return ev(self.num) / den

    # printing ---------------------------------------------------------------

    def _poly_str(self, terms: dict) -> str:
        if not terms:
            return "0"
        parts = []
        for e in sorted(terms, key=_grlex, reverse=True):
            c = terms[e]
            mono = "*".join(
                name if k == 1 else "%s^%d" % (name, k)
                for name, k in zip(self.params, e) if k)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%s*%s" % (abs(c), mono)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += " %s %s" % (sign, body)
        return out

    def __str__(self):
        try:
            if self.cden:
                return self._poly_str(self.num)
            return "(%s)/(%s)" % (self._poly_str(self.num), self._poly_str(self.den))
        except ValueError:  # int.__str__ refuses an integer past the limit
            raise PrintLimitError("a value has an integer past the int-string limit "
                                  "of %d digits" % sys.get_int_max_str_digits()) from None

    def __repr__(self):
        return "Scalar(%s)" % self

