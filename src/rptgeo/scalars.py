"""Exact rational-function arithmetic over a declared tuple of parameters.

A polynomial is a dict mapping exponent tuples (aligned with the parameter
tuple) to nonzero Fraction coefficients.  A Scalar is a reduced quotient of
two polynomials; the denominator is monic under graded-lex order, so every
rational function has exactly one representation and equality is literal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Mapping, Union

Rat = Union[int, Fraction]

# ---------------------------------------------------------------------------
# raw polynomial dictionaries


def _grlex(expo: tuple) -> tuple:
    return (sum(expo), expo)


def _dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
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
        return {tuple(x + y for x, y in zip(ea, eb)): v}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _dict_scale(a: dict, c: Fraction) -> dict:
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def _leading(a: dict) -> tuple:
    return max(a, key=_grlex)


def _is_const(a: dict) -> bool:
    return not a or (len(a) == 1 and not any(next(iter(a))))


def _const_value(a: dict) -> Fraction:
    if not a:
        return Fraction(0)
    return next(iter(a.values()))


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
    # division known to be exact; peels leading terms under graded-lex
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
        qc = rem[lead_r] / cd
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
    den_lcm = 1
    for c in a.values():
        den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
    num_gcd = 0
    for c in a.values():
        num_gcd = _int_gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
    scale = Fraction(den_lcm, num_gcd)
    if a[_leading(a)] < 0:
        scale = -scale
    return _dict_scale(a, scale)


def _poly_gcd(f: dict, g: dict) -> dict:
    if not f:
        return _canonical_assoc(g)
    if not g:
        return _canonical_assoc(f)
    if _is_const(f) or _is_const(g):
        return {(0,) * len(_leading(f or g)): Fraction(1)}
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


class Scalar:
    """Exact rational function in the parameters of its context."""

    __slots__ = ("params", "num", "den", "cden")

    def __init__(self, params: tuple, num: dict, den: dict):
        self.params = params
        self.num = num
        self.den = den
        self.cden = _is_const(den)

    # construction ---------------------------------------------------------

    @classmethod
    def constant(cls, params: tuple, value: Rat) -> "Scalar":
        value = Fraction(value)
        zero = (0,) * len(params)
        num = {zero: value} if value else {}
        return cls(params, num, {zero: Fraction(1)})

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
        zero = (0,) * len(params)
        return cls(params, {expo: Fraction(1)}, {zero: Fraction(1)})

    @classmethod
    def _make(cls, params: tuple, num: dict, den: dict) -> "Scalar":
        if not num:
            zero = (0,) * len(params)
            return cls(params, {}, {zero: Fraction(1)})
        if _is_const(den):
            c = _const_value(den)
            if not c:
                raise ZeroDivisionError("zero denominator")
            if c != 1:
                num = _dict_scale(num, 1 / c)
            zero = (0,) * len(params)
            return cls(params, num, {zero: Fraction(1)})
        g = _poly_gcd(num, den)
        if not _is_const(g):
            num = _divexact(num, g)
            den = _divexact(den, g)
            if _is_const(den):
                return cls._make(params, num, den)
        lc = den[_leading(den)]
        if lc != 1:
            num = _dict_scale(num, 1 / lc)
            den = _dict_scale(den, 1 / lc)
        return cls(params, num, den)

    # predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_constant(self) -> bool:
        return self.cden and _is_const(self.num)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("scalar is not constant: %s" % self)
        return _const_value(self.num)

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.params != self.params:
                raise ValueError("scalars come from different parameter contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.constant(self.params, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.cden and o.cden:
            return Scalar(self.params, _dict_add(self.num, o.num), self.den)
        num = _dict_add(_dict_mul(self.num, o.den), _dict_mul(o.num, self.den))
        return Scalar._make(self.params, num, _dict_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.params, _dict_neg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
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
        return Scalar._make(self.params, _dict_mul(self.num, o.den),
                            _dict_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
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
            other = Scalar.constant(self.params, other)
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
        if self.cden:
            return self._poly_str(self.num)
        return "(%s)/(%s)" % (self._poly_str(self.num), self._poly_str(self.den))

    def __repr__(self):
        return "Scalar(%s)" % self

