"""Exact rational-function arithmetic over a declared tuple of parameters.

A polynomial is a dict mapping packed exponents to nonzero int
coefficients.  A packed exponent is one nonnegative int: parameter i's
exponent sits in bits [64 i, 64 i + 64), so 0 is the zero monomial in every
arity, a monomial product is an int sum, and comparing ints orders
monomials lexicographically with the last parameter most significant, a
monomial order: the leading term of a polynomial is ``max(a)``, found in C
(Monagan and Pearce's packed exponent vectors).  A Scalar is a quotient
num/den of two such polynomials in one canonical form:

- num/den is reduced over Q: the two share no factor of positive degree;
- den's leading coefficient, at ``max(den)``, is positive;
- the gcd of all the integer coefficients of num and den together is 1;
- a polynomial or a constant has den ``{0: d}`` with d > 0.

So a rational coefficient never enters the kernel: a polynomial over Q is an
int polynomial over one positive int denominator, as in FLINT's
``fmpq_poly``.  Every rational function has exactly one canonical form, so
equality is literal.  Division and gcd run over Z.  By Gauss's lemma the
content (gcd of the coefficients) of a product is the product of the
contents, so when a primitive d (content 1) divides f over Q the quotient
has integer coefficients: ``_divexact`` divides by a primitive d on ints
and raises exactly when d does not divide f.  The exponents are decoded
only to evaluate and to print: ``__str__`` orders terms by graded-lex and
prints the monic form, num and den divided by den's graded-lex leading
coefficient, which is one printed form whatever the kernel's order.

A field holds 64 bits, and its top bit is a guard: a monomial quotient
whose field borrows sets it, which is how ``_divexact`` tells that one
monomial does not divide another.  So every exponent must stay below 2^63.
Exponents enter through ``Scalar.parameter`` (an exponent of 1, for at most
``MAX_PARAMETERS`` parameters, the fields the guards cover) and powers:
``**`` and the parser's ``^`` refuse a power that raises a parameter past
``MAX_DEGREE`` = 2^16.  Past that, exponents only add, once per factor of a
product, so a result reaches 2^63 only after some 2^47 capped factors; a
spec entry's degree is bounded by its text, and the kernel multiplies a
small number of entries (a determinant of the frame's dimension, a
pseudo-remainder sequence bounded by the degrees), far below that.

One routine brings a quotient to this form: ``_canonical``, on numerators
over one shared denominator.  It serves a Scalar, one entry, and the
entries of a tensor (``tensors``).  It first tries den's primitive part as
an exact divisor of every numerator, so gcd runs only on a true fraction and
stops once the running gcd is constant; ``_primitive`` then divides out the
integer content of den and the numerators together, and gives ints over an
int when every entry is constant.  ``Scalar._make`` normalises den's sign
and is ``_canonical`` on one entry; a polynomial over 1 is already
canonical and returns at once.

Three fields are set once, when a Scalar is built: ``cden`` (the denominator
is constant), ``is_zero`` (the numerator is empty) and ``value`` (the int or
Fraction num/den when the Scalar is constant, else None).  Like an int, a
Scalar is false exactly when it is zero.  Every denominator 1 is one shared
unit dict, ``_UNIT``, in every context, and no routine mutates a dict it is
given.  Every sum, product and quotient takes one path: a zero operand
skips the arithmetic, any other forms num and den (a sum over equal
denominators adds numerators only) and calls ``_make``, so an integral
result shares the unit.  Only negation reads ``value``: a canonical value
negated is still canonical, so it never cancels.
"""

from __future__ import annotations

import itertools
import struct
import sys
from fractions import Fraction
from functools import reduce
from math import gcd as _int_gcd, lcm as _int_lcm
from operator import or_
from typing import Mapping, Union

Rat = Union[int, Fraction]

# ---------------------------------------------------------------------------
# raw polynomial dictionaries (int coefficients, packed exponents)

_BITS = 64  # bits of one parameter's exponent, a struct "Q" when decoded
_FIELD = (1 << _BITS) - 1
MAX_DEGREE = 1 << 16  # the largest exponent of one parameter a power may give
MAX_PARAMETERS = 64  # the parameters a packed exponent has fields for
# the top bit of every field: a monomial quotient that borrows sets one
_GUARDS = sum(1 << (_BITS * i + _BITS - 1) for i in range(MAX_PARAMETERS))
_UNIT = {0: 1}  # the shared denominator 1 of every context


def _exponents(keys, nvars: int) -> list:
    """The exponents of nvars parameters, one tuple of ints per packed
    exponent in keys."""
    unpack, size = struct.Struct("<%dQ" % nvars).unpack, 8 * nvars
    return [unpack(e.to_bytes(size, "little")) for e in keys]


def _max_exponent(polys: list, nvars: int) -> int:
    """The largest exponent of one parameter in any term of the polynomials."""
    return max([k for p in polys for x in _exponents(p, nvars) for k in x], default=0)


def _grlex(a: dict, nvars: int) -> list:
    """(total degree, exponents, coefficient) of each term of a, in
    graded-lex order from the leading term down (total degree, then the
    first parameter's exponent, and so on): the order of printing."""
    terms = [(sum(x), x, c) for x, c in zip(_exponents(a, nvars), a.values())]
    terms.sort(reverse=True)
    return terms


def _dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _dict_neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _dict_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _dict_mul(a: dict, b: dict) -> dict:
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        # a monomial shifts b's exponents one to one, so no terms collide
        (ea, ca), = a.items()
        if not ea:
            return _dict_scale(b, ca)
        return {ea + eb: ca * cb for eb, cb in b.items()}
    out: dict = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _dict_scale(a: dict, c: int) -> dict:
    return a if c == 1 else {e: v * c for e, v in a.items()}


def _dict_exquo(a: dict, c: int) -> dict:
    """a / c for an int c that divides every coefficient."""
    return a if c == 1 else {e: v // c for e, v in a.items()}


def _content(a: dict) -> int:
    return _int_gcd(*a.values())


def _is_const(a: dict) -> bool:
    return not a or (len(a) == 1 and 0 in a)


def _const_value(a: dict) -> int:
    return next(iter(a.values()), 0)


def _evaluated(polys: list, vec: list) -> list:
    """Each polynomial at the point vec, one Fraction per parameter, as a
    plain int over one shared denominator: vec is cleared to a / q (q the
    lcm of its denominators), and with D the largest total degree among
    polys each result is q^D times the value, sum of c a^e q^(D - |e|)."""
    q = _int_lcm(*[v.denominator for v in vec])
    a = [v.numerator * (q // v.denominator) for v in vec]
    polys = [list(zip(_exponents(p, len(vec)), p.values())) for p in polys]
    top = max([sum(e) for p in polys for e, _ in p], default=0)
    scale = [q ** k for k in range(top, -1, -1)]  # scale[|e|] = q^(D - |e|)
    out = []
    for p in polys:
        total = 0
        for e, c in p:
            for x, k in zip(a, e):
                if k:
                    c *= x ** k
            total += c * scale[sum(e)]
        out.append(total)
    return out


# --- multivariate gcd (primitive PRS), used only to cancel true fractions ---


def _deg_in(a: dict, v: int) -> int:
    s = _BITS * v
    return max([(e >> s) & _FIELD for e in a], default=-1)


def _coeff_wrt(a: dict, v: int, k: int) -> dict:
    s = _BITS * v
    ek = k << s
    return {e - ek: c for e, c in a.items() if (e >> s) & _FIELD == k}


def _shift(a: dict, v: int, k: int) -> dict:
    ek = k << (_BITS * v)
    return {e + ek: c for e, c in a.items()}


def _divexact(f: dict, d: dict) -> dict:
    # d is primitive.  Peels leading terms, the largest packed exponent;
    # raises ArithmeticError as soon as a leading term is not an integer
    # multiple of lead(d), which by Gauss's lemma happens exactly when d
    # does not divide f.  The exponents differ by a monomial exactly when
    # no field borrows, which sets that field's guard bit or the sign
    if not f:
        return {}
    lead_d = max(d)
    cd = d[lead_d]
    quo: dict = {}
    rem = dict(f)
    while rem:
        lead_r = max(rem)
        qe = lead_r - lead_d
        qc, r = divmod(rem[lead_r], cd)
        if r or qe < 0 or qe & _GUARDS:
            raise ArithmeticError("inexact polynomial division")
        quo[qe] = qc
        for e, c in d.items():
            e += qe
            s = rem.get(e, 0) - qc * c
            if s:
                rem[e] = s
            else:
                del rem[e]
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
    if not _is_const(cont):
        a = _divexact(a, cont)
    return _canonical_assoc(a)


def _canonical_assoc(a: dict) -> dict:
    # integer-primitive with positive leading coefficient
    if not a:
        return {}
    g = _content(a)
    return _dict_exquo(a, -g if a[max(a)] < 0 else g)


def _poly_gcd(f: dict, g: dict) -> dict:
    if not f:
        return _canonical_assoc(g)
    if not g:
        return _canonical_assoc(f)
    if _is_const(f) or _is_const(g):
        return _UNIT
    # the first parameter either depends on: the lowest field of any exponent
    bits = reduce(or_, itertools.chain(f, g))
    v = ((bits & -bits).bit_length() - 1) // _BITS
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


# --- the one cancellation, for a Scalar and for a tensor's entries ---


def _split(a: dict):
    """(content, primitive part) of a polynomial."""
    c = _content(a)
    return c, _dict_exquo(a, c)


def _exquo(a: dict, b: dict) -> dict:
    """a / b for a polynomial b that divides a."""
    (ca, pa), (cb, pb) = _split(a), _split(b)
    if pa == pb:
        return {0: ca // cb}
    return _dict_exquo(_divexact(a, pb), cb)


def _lcm(a: dict, b: dict) -> dict:
    """The least common multiple of two polynomials with positive leading
    coefficients, through the gcd of their primitive parts."""
    if a == b:
        return a
    (ca, pa), (cb, pb) = _split(a), _split(b)
    g = pa if pa == pb else _poly_gcd(pa, pb)
    return _dict_scale(_dict_mul(pa, _divexact(pb, g)), _int_lcm(ca, cb))


def _canonical(nums: list, den):
    """nums / den in canonical form, for den an int > 0 or a polynomial
    with positive leading coefficient.  The common factor of den and every
    numerator is found by trial division by den's primitive part pd; when a
    numerator is not a multiple of pd the running gcd starts there, and each
    later numerator not a multiple of it takes a gcd, until it is constant."""
    if type(den) is int:
        if den > 1:
            g = _int_gcd(den, *nums)
            if g > 1:
                nums, den = [x // g for x in nums], den // g
        return nums, den
    if _is_const(den):
        return _primitive(nums, den)
    c = _content(den)
    pd = _dict_exquo(den, c)
    quotients = []
    for k, x in enumerate(nums):
        try:
            quotients.append(_divexact(x, pd))
        except ArithmeticError:
            break
    else:
        return _primitive(quotients, {0: c})
    g = _poly_gcd(pd, nums[k])
    for x in nums[k + 1:]:
        if _is_const(g):
            return _primitive(nums, den)
        try:
            _divexact(x, g)
        except ArithmeticError:
            g = _poly_gcd(g, x)
    if _is_const(g):
        return _primitive(nums, den)
    return _primitive([_divexact(x, g) for x in nums], _divexact(den, g))


def _primitive(nums: list, den: dict):
    """nums / den with no common factor of positive degree, divided by the
    integer content of den and all numerators together; on the int form
    when every entry is a constant."""
    k = _content(den)
    for x in nums:
        if k == 1:
            break
        if x:
            k = _int_gcd(k, *x.values())
    if k > 1:
        nums, den = [x and _dict_exquo(x, k) for x in nums], _dict_exquo(den, k)
    if _is_const(den):
        # a numerator is constant when no key but the zero exponent is in it
        if all(map({0}.issuperset, nums)):
            return [x.get(0, 0) for x in nums], den[0]
    return nums, den


# ---------------------------------------------------------------------------
# Scalar


class PrintLimitError(ValueError):
    """A Scalar cannot print: it holds an integer past the int-string limit."""


class DegreeLimitError(ValueError):
    """A power would raise one parameter past ``MAX_DEGREE``."""


class Scalar:
    """Exact rational function in the parameters of its context."""

    __slots__ = ("params", "num", "den", "cden", "value", "is_zero")

    def __init__(self, params: tuple, num: dict, den: dict):
        """The non-constant Scalar num / den, already canonical; a constant
        is built by ``_of_value``."""
        self.params = params
        self.num = num
        self.den = den
        self.cden = _is_const(den)
        self.is_zero = False
        self.value = None

    # construction ---------------------------------------------------------

    @classmethod
    def constant(cls, params: tuple, value: Rat) -> "Scalar":
        if type(value) is not int:
            value = Fraction(value)
        return cls._of_value(params, value)

    @classmethod
    def _of_value(cls, params: tuple, value: Rat) -> "Scalar":
        """The constant value, over the shared unit when it is an int."""
        s = object.__new__(cls)
        s.params = params
        s.cden = True
        if type(value) is not int:
            if value.denominator != 1:
                s.value = value
                s.num = {0: value.numerator}
                s.den = {0: value.denominator}
                s.is_zero = False
                return s
            value = value.numerator
        s.value = value
        s.den = _UNIT
        if value:
            s.num = {0: value}
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
        if idx >= MAX_PARAMETERS:
            raise ValueError("a context has at most %d parameters" % MAX_PARAMETERS)
        return cls(params, {1 << (_BITS * idx): 1}, _UNIT)

    @classmethod
    def _make(cls, params: tuple, num: dict, den: dict) -> "Scalar":
        """num / den in canonical form: ``_canonical`` on one entry."""
        if den == _UNIT:
            # every polynomial over 1 is already canonical
            if _is_const(num):
                return cls._of_value(params, _const_value(num))
            return cls(params, num, _UNIT)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if den[max(den)] < 0:
            num, den = _dict_neg(num), _dict_neg(den)
        (num,), den = _canonical([num], den)
        if type(den) is int:
            return cls._of_value(params, Fraction(num, den) if den > 1 else num)
        return cls(params, num, _UNIT if den == _UNIT else den)

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
        sd, od = self.den, o.den
        if sd == od:
            return Scalar._make(self.params, _dict_add(self.num, o.num), sd)
        num = _dict_add(_dict_mul(self.num, od), _dict_mul(o.num, sd))
        return Scalar._make(self.params, num, _dict_mul(sd, od))

    __radd__ = __add__

    def __neg__(self):
        if self.value is not None:
            return Scalar._of_value(self.params, -self.value)
        return Scalar(self.params, _dict_neg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
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
        if k > 1 and k * _max_exponent([self.num, self.den], len(self.params)) > MAX_DEGREE:
            raise DegreeLimitError("a power past degree %d in one parameter" % MAX_DEGREE)
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
        # a constant equals its int or Fraction value, so it hashes as one
        if self.value is not None:
            return hash(self.value)
        return hash((self.params, frozenset(self.num.items()),
                     frozenset(self.den.items())))

    # evaluation ------------------------------------------------------------

    def substitute(self, values: Mapping[str, Rat]) -> Fraction:
        """Evaluate at rational values given for every parameter: num and
        den on ints through ``_evaluated``, one Fraction at the end."""
        num, den = _evaluated([self.num, self.den],
                              [Fraction(values[name]) for name in self.params])
        if not den:
            raise ZeroDivisionError("denominator vanishes at the given values")
        return Fraction(num, den)

    # printing ---------------------------------------------------------------

    def _poly_str(self, terms: list, lead: int) -> str:
        # terms, from _grlex, divided by lead, the leading coefficient of the
        # denominator
        parts = []
        for _, e, c in terms:
            c = c if lead == 1 else Fraction(c, lead)
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
            if self.value is not None:
                return str(self.value)
            n = len(self.params)
            num = _grlex(self.num, n)
            if self.cden:
                return self._poly_str(num, _const_value(self.den))
            den = _grlex(self.den, n)
            lead = den[0][2]
            return "(%s)/(%s)" % (self._poly_str(num, lead), self._poly_str(den, lead))
        except ValueError:  # int.__str__ refuses an integer past the limit
            raise PrintLimitError("a value has an integer past the int-string limit "
                                  "of %d digits" % sys.get_int_max_str_digits()) from None

    def __repr__(self):
        return "Scalar(%s)" % self
