"""Dense tensors over a small frame, plus matrix helpers.

Slots are 0-based in this API; variance is a string over ``u`` (vector
slot) and ``d`` (covector slot).  Components live in a flat row-major list.

A tensor holds numerators ``nums`` over one shared denominator ``den``, in
one of two forms chosen only from the entries, each kept canonical so that
``==`` compares the two lists:

- the int form, when every entry is a constant of the context: int
  numerators over an int den > 0, with gcd(den, *nums) = 1;
- the parametric form, otherwise: int polynomials (the packed exponent ->
  int dicts of ``scalars``) over a polynomial den.  den and the numerators
  share no factor of positive degree, the integer content of den and all
  numerators together is 1, and den's leading coefficient, at the largest
  packed exponent, is positive.

An op that makes a polynomial denominator brings its result to that form
through ``scalars._canonical``, the one cancellation, which a Scalar uses
too; a result whose entries are all constants drops to the int form.

Scalars are built only at the boundary.  The constructor takes Scalars and
clears them to the form of their entries.  ``comps`` reads Scalars: a view
built once, entry by entry through ``Scalar._make``, where Scalars are read
(witnesses, printing, report scalars, golden comparisons).  The small
matrix an op takes (a metric, its inverse, P, a change of basis) is read
by ``_matrix``: a rank-2 Tensor, as a frame holds them, as it is held;
nested rows of Scalars, at the boundary, cleared by ``_cleared`` to ints
or polynomials over one denominator.  ``substitute`` builds no Scalar: it
evaluates the numerators and den at the point on ints,
``scalars._evaluated``, and cancels the int result once.

Every op runs on the form its operands share; an int-form operand next to
a parametric one is lifted to constant polynomials.  Every product is one
multiply-accumulate, ``_mul``, on ints or on polynomial dicts, where a zero
entry makes no term and a monomial product is one int sum of packed
exponents.  The tensor products (``compose``, ``tensor_contract``, the
slot-map pass, ``contract_all`` on polynomials), ``mat_mul`` and the
Jacobi residuals of ``validate`` (``jacobi_residuals``) call it;
``contract_all`` on ints is one ``sum`` over ``map(operator.mul, ...)``.
``compose`` builds the torsion inner products, and covariant derivatives
and curvature from connection coefficients.  Where a changes sign when its
first two slots swap, as c^k_ij and the raised torsion do, it multiplies
only the rows (i, j, ..) with i < j; where b changes sign when its last
two slots swap, as T and g(nabla_s e_k, e_l) of a metric connection do,
only the columns (.., k, l) with k < l.  Both are decided by comparing
held numerators: the first nonzero entry's mirror refuses most other
operands at once.  The kept block cancels once, and one gather fills the
product from it, its negations and one zero, so the torsion products and
the bracket term of the curvature multiply a quarter of the full product.

Every slot map is one pass, ``Tensor._passed``, given a dim x dim matrix
(``_matrix``) or None per slot: ``map_slot``, ``lower_slot`` and
``raise_slot`` map one slot, ``map_slots`` several (``frames._moved``,
``geometry.square_norm``), and ``arranged`` its P slots before its
transpose, ``_gathered``, the one gather of every permutation.  Only a
diagonal of 1 and -1 over 1, such as P = diag(I, -I) in a P-eigenbasis,
given to ``map_slot`` or ``arranged``, takes the signed gather (below).

Data movement runs in C builtins.  ``transpose`` and the slot-map pass
gather, on either form, through one ``operator.itemgetter`` per (dim,
perm); the signed gather, all of ``arranged`` by such a P, through one per
(dim, perm, slots, signs) over the components followed by their negations.
A skew test reads its entries through getters per (dim, rank, slot), and
a skew ``compose`` picks its kept rows and columns and fills its product
through those per (dim, row rank, column rank, skew rows, skew columns).
All are kept in ``_GATHERS``, a table of shapes, never of results, so
``frames.memo`` stays the one cache of results.  On the int form the
entrywise ops of two lists, ``+`` and ``-`` over one denominator and the
diagonal slot map, are one ``map(operator.add/sub/mul, ...)`` each.  An op that multiplies every entry by one int (the lcm branch
of ``+``/``-``, ``scale`` by a constant, the int cancellation) stays a
comprehension, which CPython 3.11 runs faster than ``map`` over
``itertools.repeat``.

The small exact matrices have one elimination, ``_eliminated``, behind
``row_reduce``, ``pivot_columns``, ``leading_minors``, ``mat_det``,
``mat_inv`` and ``null_space``, the one reader of a kernel.  Each takes
rows of Scalars and, but ``null_space``, a rank-2 Tensor, read as it is
held.  On a constant matrix it is one fraction-free (Bareiss) loop on
ints, ``_bareiss``: every entry it makes is a minor, so every division is
exact.  Rows of Scalars are cleared to ints for it, a Tensor's ints are
read, and Scalars are built only for what is returned: the rref and the
inverse of a Tensor are Tensors made on ints.  Else it is Gauss-Jordan on
the Scalars, a parametric Tensor's through its view.  Both loops return
their pivot values; only ``_reduce`` (``row_reduce``, ``leading_minors``)
makes minors of them, on ints int pivots over a power of the
denominator, and ``leading_minors`` builds no rref.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Sequence

from .scalars import (Scalar, _canonical, _dict_add, _dict_mul, _dict_neg, _dict_scale,
                      _dict_sub, _evaluated, _exquo, _lcm, _primitive)

class Tensor:
    __slots__ = ("dim", "variance", "params", "_comps", "_nums", "_den")

    def __init__(self, dim: int, variance: str, params: tuple, comps: list):
        if len(comps) != dim ** len(variance):
            raise ValueError("component list has wrong length")
        if any(v not in "ud" for v in variance):
            raise ValueError("variance must be a string over 'u'/'d'")
        self.dim = dim
        self.variance = variance
        self.params = params
        self._comps = comps
        (self._nums,), self._den = _cleared([comps], params)

    # construction ----------------------------------------------------------

    @classmethod
    def _of(cls, dim: int, variance: str, params: tuple, nums: list, den):
        """A tensor an op made from nums over den, already canonical."""
        t = object.__new__(cls)
        t.dim, t.variance, t.params = dim, variance, params
        t._comps, t._nums, t._den = None, nums, den
        return t

    @classmethod
    def _new(cls, dim: int, variance: str, params: tuple, nums: list, den):
        """A tensor an op made from nums over den, an int > 0 or a
        polynomial with positive leading coefficient, made canonical."""
        return cls._of(dim, variance, params, *_canonical(nums, den))

    @classmethod
    def of_ints(cls, dim: int, variance: str, params: tuple, nums: list,
                den: int = 1) -> "Tensor":
        """The tensor with components nums[k] / den, for int numerators in
        row-major order over an int den > 0: the int form, built without a
        Scalar."""
        return cls._new(dim, variance, params, nums, den)

    @classmethod
    def zeros(cls, dim: int, variance: str, params: tuple) -> "Tensor":
        return cls._of(dim, variance, params, [0] * dim ** len(variance), 1)

    # storage -----------------------------------------------------------------

    @property
    def comps(self) -> list:
        """The components as Scalars, a view built once."""
        if self._comps is None:
            self._comps = _scalars(self._nums, self._den, self.params)
        return self._comps

    @property
    def ints(self):
        """(nums, den) on the int form, else None."""
        return (self._nums, self._den) if type(self._den) is int else None

    def _values(self):
        """(nums, den) in the tensor's form: ints over an int, or
        polynomial dicts over a polynomial dict."""
        return self._nums, self._den

    # indexing ----------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.variance)

    def _offset(self, idx: tuple) -> int:
        off = 0
        for k in idx:
            off = off * self.dim + k
        return off

    def __getitem__(self, idx) -> Scalar:
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != self.rank or not all(0 <= k < self.dim for k in idx):
            raise IndexError("index %s does not address a component of a rank-%d "
                             "tensor of dimension %d" % (idx, self.rank, self.dim))
        return self.comps[self._offset(idx)]

    def indices(self):
        return itertools.product(range(self.dim), repeat=self.rank)

    def nonzero(self):
        """Pairs (index tuple, component) for nonzero components."""
        return [(idx, c) for idx, c in zip(self.indices(), self.comps)
                if not c.is_zero]

    # algebra -----------------------------------------------------------------

    def _like(self, values: list, den) -> "Tensor":
        return Tensor._new(self.dim, self.variance, self.params, values, den)

    def _check_compatible(self, other: "Tensor"):
        if (self.dim, self.variance, self.params) != (other.dim, other.variance, other.params):
            raise ValueError("tensors have different shape or context")

    def __add__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, 1)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, -1)

    def _combine(self, other: "Tensor", sign: int) -> "Tensor":
        """self + sign * other, over the lcm of the two denominators."""
        self._check_compatible(other)
        (xs, da), (ys, db) = _joint([self._values(), other._values()])
        if type(da) is int:
            if da != db:
                den = _int_lcm(da, db)
                fa, fb = den // da, sign * (den // db)
                return self._like([x * fa + y * fb for x, y in zip(xs, ys)], den)
            return self._like(list(map(operator.add if sign > 0 else operator.sub, xs, ys)), da)
        if da == db:
            if sign > 0:
                return self._like([_dict_add(x, y) if x and y else x or y
                                   for x, y in zip(xs, ys)], da)
            return self._like([_dict_sub(x, y) if y else x for x, y in zip(xs, ys)], da)
        den = _lcm(da, db)
        fa, fb = _exquo(den, da), _exquo(den, db)
        if sign < 0:
            fb = _dict_neg(fb)
        out = []
        for x, y in zip(xs, ys):
            x, y = x and _dict_mul(x, fa), y and _dict_mul(y, fb)
            out.append(_dict_add(x, y) if x and y else x or y)
        return self._like(out, den)

    def __neg__(self) -> "Tensor":
        values, den = self._values()
        neg = _dict_neg if type(den) is dict else operator.neg
        return Tensor._of(self.dim, self.variance, self.params, list(map(neg, values)), den)

    def scale(self, factor) -> "Tensor":
        """The tensor times an int, a Fraction or a Scalar of its context."""
        values, den = self._values()
        if not isinstance(factor, (int, Fraction)):
            if factor.params is not self.params and factor.params != self.params:
                raise ValueError("scalars come from different parameter contexts")
            if factor.value is None:
                values, den = _as_poly(values, den)
                return self._like([_dict_mul(x, factor.num) if x else x for x in values],
                                  _dict_mul(den, factor.den))
            factor = factor.value
        num, qden = factor.numerator, factor.denominator
        if not num:
            return Tensor.zeros(self.dim, self.variance, self.params)
        if type(den) is int:
            # num / qden and nums / den are in lowest terms, so with gcd(num,
            # den) and gcd(qden, *nums) divided out first, so is the product
            g, h = _int_gcd(num, den), _int_gcd(qden, *values)
            num, den = num // g, den // g * (qden // h)
            return Tensor._of(self.dim, self.variance, self.params,
                              [x // h * num for x in values], den)
        # a constant factor makes no common factor of positive degree
        return Tensor._of(self.dim, self.variance, self.params, *_primitive(
            [_dict_scale(x, num) for x in values], _dict_scale(den, qden)))

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if (self.dim, self.variance, self.params) != (other.dim, other.variance, other.params):
            return False
        return self._den == other._den and self._nums == other._nums

    @property
    def is_zero(self) -> bool:
        return not any(self._nums)

    def substitute(self, values) -> "Tensor":
        """Evaluate every component; result lives in an empty parameter context.
        The numerators and den are evaluated on ints (``scalars._evaluated``)
        and cancelled once; ZeroDivisionError where den vanishes."""
        nums, den = self._values()
        if type(den) is int:
            return Tensor._of(self.dim, self.variance, (), nums, den)
        *nums, den = _evaluated(nums + [den], [Fraction(values[name]) for name in self.params])
        if not den:
            raise ZeroDivisionError("denominator vanishes at the given values")
        if den < 0:
            nums, den = [-x for x in nums], -den
        return Tensor._new(self.dim, self.variance, (), nums, den)

    # slot operations -----------------------------------------------------------

    def transpose(self, perm: Sequence[int]) -> "Tensor":
        """Tensor N with N(x_0,..) = T(x_{perm[0]},..)."""
        perm = tuple(perm)
        if len(perm) != self.rank:
            raise ValueError("perm must be a permutation of the slots")
        return self._gathered(perm)

    def _gathered(self, perm: tuple, slots: tuple = (), signs: tuple = ()) -> "Tensor":
        """The transpose by perm, each slot in slots mapped by diag(signs): one
        getter over the components and, given signs, their negations."""
        n = self.dim
        key = (n, perm, slots, signs) if slots else (n, perm)
        gather = _GATHERS.get(key) or _gather(n, perm, slots, signs)
        # input slot k becomes output slot perm[k]
        variance = "".join([v for _, v in sorted(zip(perm, self.variance))])
        values, den = self._values()
        if slots:
            values = values + list(map(_dict_neg if type(den) is dict else operator.neg, values))
        return Tensor._of(n, variance, self.params, list(gather(values)), den)

    def map_slot(self, matrix, slot: int) -> "Tensor":
        """Compose a (1,1) map into one slot (covariant: M^a_i feeds slot).
        The matrix is a rank-2 Tensor or nested rows (``_matrix``)."""
        return self._mapped(_matrix(matrix, self.params, self.dim), slot)

    def map_slots(self, matrices) -> "Tensor":
        """Each slot k mapped by matrices[k] as ``map_slot`` maps one, or
        left where it is None, in one pass (``_passed``): a change of basis
        is s on the covector slots and s^-1 on the vector slots.  ValueError
        unless there is one entry per slot."""
        if len(matrices) != self.rank:
            raise ValueError("%d slot matrices for a rank-%d tensor"
                             % (len(matrices), self.rank))
        return self._passed([m if m is None else _matrix(m, self.params, self.dim)
                             for m in matrices])

    def _mapped(self, cleared, slot: int) -> "Tensor":
        """``map_slot`` by a matrix (rows, d): a diagonal of 1 and -1 is the
        signed gather, any other matrix the one slot-map pass on this slot.
        ValueError on a slot outside 0..rank-1."""
        self._check_slot(slot)
        signs = _signs(*cleared)
        if signs:
            return self._gathered(tuple(range(self.rank)), (slot,), signs)
        return self._passed([cleared if k == slot else None for k in range(self.rank)])

    def _passed(self, cleared: list) -> "Tensor":
        """The one slot-map pass: slot k mapped by cleared[k], a matrix
        (rows, d) or None, as ``map_slot`` maps it.  A diagonal matrix
        scales each slice of its slot where the slot stands.  Any other
        comes to the front by one gather, a rotation of the slots, and
        left-multiplies the n rows of width n ** (rank - 1) in one ``_mul``,
        by M on a vector slot and by M^T on a covector slot; on the second
        slot of a rank-2 tensor the n rows are multiplied on the right
        instead, with no gather.  One last gather restores the slot order,
        and the product of the denominators cancels once."""
        n, r = self.dim, self.rank
        mapped = [k for k, m in enumerate(cleared) if m is not None]
        (values, den), *mats = _joint([self._values()] + [cleared[k] for k in mapped])
        poly = type(den) is dict
        order = list(range(r))  # the slot at each position
        for slot, (rows, d) in zip(mapped, mats):
            den, p = _times(den, d), order.index(slot)
            diag = [row[i] for i, row in enumerate(rows)]
            if sum(map(bool, itertools.chain.from_iterable(rows))) == sum(map(bool, diag)):
                diag = itertools.cycle([x for x in diag for _ in range(n ** (r - 1 - p))])
                values = [_dict_mul(x, y) if x and y else {} for x, y in zip(values, diag)] \
                    if poly else list(map(operator.mul, values, diag))
                continue
            if p == 1 == r - 1:
                # the second slot of a matrix: its rows times M, or M^T on a
                # vector slot, with no gather
                rows = mat_transpose(rows) if self.variance[slot] == "u" else rows
                values = [x for row in _mul(_rows(values, n), rows, poly) for x in row]
                continue
            if p:
                order = order[p:] + order[:p]
                values = _transposed(values, n, tuple((k - p) % r for k in range(r)))
            if self.variance[slot] == "d":
                rows = mat_transpose(rows)
            values = [x for row in _mul(rows, _rows(values, n ** (r - 1)), poly) for x in row]
        if order != list(range(r)):
            values = _transposed(values, n, tuple(order))
        return Tensor._new(n, self.variance, self.params, values, den)

    def _check_slot(self, slot: int):
        if not 0 <= slot < self.rank:
            raise ValueError("slot %d of a rank-%d tensor" % (slot, self.rank))

    def lower_slot(self, slot: int, metric) -> "Tensor":
        self._check_slot(slot)
        if self.variance[slot] != "u":
            raise ValueError("slot is already covariant")
        t = self._mapped(_matrix(metric, self.params, self.dim), slot)
        var = self.variance[:slot] + "d" + self.variance[slot + 1:]
        return Tensor._of(self.dim, var, self.params, *t._values())

    def raise_slot(self, slot: int, metric_inv) -> "Tensor":
        self._check_slot(slot)
        if self.variance[slot] != "d":
            raise ValueError("slot is already contravariant")
        # map_slot reads matrix[a][i] on a covariant slot; the inverse metric
        # is symmetric (validate enforces a symmetric metric), so that is g^ia
        t = self._mapped(_matrix(metric_inv, self.params, self.dim), slot)
        var = self.variance[:slot] + "u" + self.variance[slot + 1:]
        return Tensor._of(self.dim, var, self.params, *t._values())


def coefficient_tensor(nested: list, variance: str = "ddu") -> Tensor:
    """Tensor holding nested[i][j].. at (i, j, ..), for an array nested one
    level per slot, such as the brackets c^k_ij or a matrix as ``dd``."""
    comps = nested
    for _ in variance[1:]:
        comps = [x for row in comps for x in row]
    return Tensor(len(nested), variance, comps[0].params, comps)


def _rows(values: list, width: int) -> list:
    """A flat list as a matrix with rows of the given width."""
    return [values[k:k + width] for k in range(0, len(values), width)]


def _product(a: list, b: list, den) -> list:
    """The flat entries of the matrix product a.b: on ints when den is an
    int, else on polynomial dicts."""
    return [x for row in _mul(a, b, type(den) is dict) for x in row]


def compose(a: Tensor, b: Tensor) -> Tensor:
    """Contract the last slot of a, a vector slot, with the first slot of b,
    a covector slot: C(.., x, y, ..) = sum_s a(.., x, e^s) b(e_s, y, ..).

    Where a changes sign when its first two slots swap, row (j, i, ..) of
    the product is minus row (i, j, ..) and row (i, i, ..) is zero, so only
    the rows with i < j are multiplied; likewise the columns (.., k, l)
    with k < l where b changes sign when its last two slots swap.  The kept
    block cancels once, and one gather (``_skew_fill``) fills the product
    from it, its negations and one zero."""
    if a.dim != b.dim or a.params != b.params:
        raise ValueError("tensors have different dimension or context")
    if a.variance[-1:] != "u" or b.variance[:1] != "d":
        raise ValueError("compose needs a vector slot last in a and a covector "
                         "slot first in b")
    (av, ad), (bv, bd) = _joint([a._values(), b._values()])
    n, den = a.dim, _times(ad, bd)
    variance = a.variance[:-1] + b.variance[1:]
    neg = _dict_neg if type(den) is dict else operator.neg
    rows = a.rank > 2 and _skew(av, n, a.rank, 0, neg)
    cols = b.rank > 2 and _skew(bv, n, b.rank, b.rank - 2, neg)
    av, bv = _rows(av, n), _rows(bv, len(bv) // n)
    if not (rows or cols):
        return Tensor._new(n, variance, a.params, _product(av, bv, den), den)
    key = (n, a.rank - 1, b.rank - 1, rows, cols)
    kept_rows, kept_cols, fill = _GATHERS.get(key) or _skew_fill(*key)
    if rows:
        av = kept_rows(av)
    if cols:
        bv = list(map(kept_cols, bv))
    nums, den = _canonical(_product(av, bv, den), den)
    poly = type(den) is dict
    nums = nums + list(map(_dict_neg if poly else operator.neg, nums)) + [{} if poly else 0]
    return Tensor._of(n, variance, a.params, list(fill(nums)), den)


# ---------------------------------------------------------------------------
# the operations of the exact core


def tensor_contract(t: Tensor, slot_a: int, slot_b: int, metric=None) -> Tensor:
    """Contract two slots: the sum over p, q of metric[p][q] t(.., p at
    slot_a, .., q at slot_b, ..).  Pairing equal variances requires a metric
    matrix; a vector and a covector slot pair by the identity."""
    r = t.rank
    if not (0 <= slot_a < r and 0 <= slot_b < r) or slot_a == slot_b:
        raise ValueError("contraction slots out of range or equal")
    va, vb = t.variance[slot_a], t.variance[slot_b]
    if va == vb and metric is None:
        raise ValueError("contracting slots of equal variance needs a metric")
    if va != vb and metric is not None:
        raise ValueError("metric only applies when slot variances match")
    keep = [k for k in range(r) if k not in (slot_a, slot_b)]
    # the two slots move to the front: row p * n + q holds t at slot_a = p and
    # slot_b = q, paired by metric[p][q], or by the identity on a vector and a
    # covector slot
    order = [slot_a, slot_b] + keep
    n = t.dim
    moved = t.transpose([order.index(k) for k in range(r)])
    pairing = ([[int(i == j) for j in range(n)] for i in range(n)], 1) if metric is None \
        else _matrix(metric, t.params, n)
    (values, den), (rows, d) = _joint([moved._values(), pairing])
    den = _times(den, d)
    comps = _product([[m for row in rows for m in row]], _rows(values, n ** (r - 2)), den)
    return Tensor._new(n, "".join(t.variance[k] for k in keep), t.params, comps, den)


def contract_all(a: Tensor, b: Tensor) -> Scalar:
    """The full contraction, the sum over every index of a(idx) b(idx), of
    two tensors of one dimension, rank and context, such as a covariant
    tensor and its raised twin: one product on the form they share."""
    if (a.dim, a.rank, a.params) != (b.dim, b.rank, b.params):
        raise ValueError("tensors have different shape or context")
    (av, ad), (bv, bd) = _joint([a._values(), b._values()])
    den = _times(ad, bd)
    if type(den) is int:
        return _scalars([sum(map(operator.mul, av, bv))], den, a.params)[0]
    return _scalars(_product([av], [[y] for y in bv], den), den, a.params)[0]


def jacobi_residuals(brackets: Tensor):
    """Yield ((i, j, m, r), Scalar) for each nonzero component r of the
    Jacobi sum [[e_i, e_j], e_m] + [[e_j, e_m], e_i] + [[e_m, e_i], e_j],
    i < j < m, of the brackets c^k_ij held at (i, j, k), in that order.
    One product on the numerators of c, ints or polynomials: the residual
    at (i, j, m, r) is the sum over (s, k) of row (i, j, m) at s * n + k,
    which holds c^s_ij at k = m, c^s_jm at k = i and c^s_mi at k = j, times
    c^r_sk; it is over the squared denominator."""
    n = brackets.dim
    values, den = brackets._values()
    cc = _rows(_rows(values, n), n)
    poly = type(den) is dict
    triples = list(itertools.combinations(range(n), 3))
    rows = []
    for i, j, m in triples:
        row = [{} if poly else 0] * (n * n)
        row[m::n], row[i::n], row[j::n] = cc[i][j], cc[j][m], cc[m][i]
        rows.append(row)
    den2 = _times(den, den)
    for (i, j, m), residuals in zip(triples, _mul(rows, _rows(values, n), poly)):
        for r, acc in enumerate(residuals):
            if acc:
                yield (i, j, m, r), _scalars([acc], den2, brackets.params)[0]


def cyclic_sum(t: Tensor, slots) -> Tensor:
    """Sum over the three cyclic rotations of the given slots."""
    s1, s2, s3 = slots
    if len({s1, s2, s3}) != 3 or not all(0 <= s < t.rank for s in slots):
        raise ValueError("cyclic sum needs three distinct slots in 0..%d" % (t.rank - 1))
    if len({t.variance[s] for s in (s1, s2, s3)}) != 1:
        raise ValueError("cyclic sum slots must have equal variance")
    perm = list(range(t.rank))
    perm[s1], perm[s2], perm[s3] = s2, s3, s1
    perm2 = list(range(t.rank))
    perm2[s1], perm2[s2], perm2[s3] = s3, s1, s2
    return t + t.transpose(perm) + t.transpose(perm2)


_VARS = {"x": 0, "y": 1, "z": 2, "w": 3}


def arranged(t: Tensor, pattern: str, product=None) -> Tensor:
    """Rearrange arguments by a pattern such as ``"Pz,x,Py"``.

    The result S satisfies S(x,y,z,..) = T(pattern), where a ``P`` prefix
    composes the product matrix (a rank-2 Tensor or nested rows) into that
    argument; a diagonal of 1 and -1 makes the whole one signed gather.
    """
    slots = [p.strip() for p in pattern.split(",")]
    rank = len(slots)
    if rank != t.rank:
        raise ValueError("pattern arity does not match tensor rank")
    perm, flagged = [], []
    for pos, spec in enumerate(slots):
        flag = spec[:1] == "P"
        k = _VARS.get(spec[1:] if flag else spec, rank)
        if k >= rank:
            raise ValueError("bad argument '%s' in pattern" % spec)
        perm.append(k)
        if flag:
            if product is None:
                raise ValueError("pattern uses P but no product matrix given")
            flagged.append(pos)
    if len(set(perm)) != rank:
        raise ValueError("pattern must use each argument exactly once")
    perm, flagged = tuple(perm), tuple(flagged)
    if flagged:
        cleared = _matrix(product, t.params, t.dim)
        signs = _signs(*cleared)
        if signs:
            return t._gathered(perm, flagged, signs)
        t = t._passed([cleared if k in flagged else None for k in range(rank)])
    return t._gathered(perm)


# ---------------------------------------------------------------------------
# the gathers of ``transpose``: a table of shapes

# (dim, perm) -> the getter of a transpose; (dim, perm, slots, signs) -> the
# signed gather's, over the components followed by their negations; size ->
# the offsets 0..size-1, whose ints the getters of that size share; (dim,
# rank, p) -> the getters of the entries a skew test in slots p and p + 1
# compares; (dim, row rank, column rank, skew rows, skew columns) -> the
# kept-row and kept-column getters of a skew ``compose`` and its fill.  No
# tensor and no value: ``frames.memo`` is the one cache of results.
_GATHERS: dict = {}


def _gather(dim: int, perm: tuple, slots: tuple = (), signs: tuple = ()):
    """The getter of a transpose by perm on dim ** len(perm) components:
    output slot k walks input slot perm.index(k), read from the negated half
    where the signs of its indices at slots multiply to -1."""
    r = len(perm)
    if sorted(perm) != list(range(r)):
        raise ValueError("perm must be a permutation of the slots")
    size = dim ** r
    table = [0]
    for k in range(r):
        stride = dim ** (r - 1 - perm.index(k))
        steps = range(0, dim * stride, stride)
        table = [off + step for off in table for step in steps]
    if slots:
        half = [0]
        for k in range(r):
            steps = [size if k in slots and x < 0 else 0 for x in signs]
            half = [h ^ step for h in half for step in steps]
        table = [off + half[off] for off in table]
        size *= 2
    gather = _GATHERS[(dim, perm, slots, signs) if slots else (dim, perm)] = \
        _getter(table, size)
    return gather


def _getter(table: list, size: int):
    """One itemgetter of the offsets in table, below size, that returns a
    sequence, its ints those of the size's shared offsets: an itemgetter of
    one offset returns the bare item, so one offset slices."""
    offsets = _GATHERS.get(size) or _GATHERS.setdefault(size, list(range(size)))
    return operator.itemgetter(*map(offsets.__getitem__, table)) if len(table) > 1 else \
        operator.itemgetter(slice(table[0], table[0] + 1) if table else slice(0))


def _skew(values: list, dim: int, r: int, p: int, neg) -> bool:
    """Whether components of r slots, on either form, change sign when
    slots p and p + 1 swap: neg negates one entry.  The first nonzero
    entry's mirror refuses most other tensors before the full test, which
    negates only the entries with i < j there."""
    off = next(itertools.compress(itertools.count(), values), None)
    if off is None:
        return True
    stride = dim ** (r - 2 - p)  # of slot p + 1; slot p's is dim times it
    i, j = off // stride // dim % dim, off // stride % dim
    if values[off + (i - j) * (1 - dim) * stride] != neg(values[off]):
        return False
    upper, lower, diagonal = _GATHERS.get((dim, r, p)) or _mirrors(dim, r, p)
    return not any(diagonal(values)) and \
        tuple(lower(values)) == tuple(map(neg, upper(values)))


def _mirrors(dim: int, r: int, p: int):
    """The getters of the entries of r slots with i < j at slots p and p + 1,
    of their mirrors in the same order, and of the entries with i = j."""
    at, kept = _halves(dim, r, p)
    lower = [0] * len(kept)
    for off, (k, sign) in enumerate(at):
        if sign < 0:
            lower[k] = off
    size = dim ** r
    gathers = _GATHERS[dim, r, p] = (
        _getter(kept, size), _getter(lower, size),
        _getter([off for off, (_, sign) in enumerate(at) if not sign], size))
    return gathers


def _skew_fill(dim: int, ra: int, rb: int, rows: bool, cols: bool):
    """(kept rows, kept columns, fill) of ``compose`` on dim ** ra rows and
    dim ** rb columns, skew in the first two row slots where rows and in
    the last two column slots where cols.  The getters pick the rows (i, j,
    ..) and the columns (.., k, l) with i < j and k < l, each None on a
    side that is not skew; the fill reads each entry of the product from
    the K kept ones, their K negations after them, or the zero last."""
    row_at, kept_rows = _halves(dim, ra, 0 if rows else None)
    col_at, kept_cols = _halves(dim, rb, rb - 2 if cols else None)
    width, size = len(kept_cols), len(kept_rows) * len(kept_cols)
    table = [2 * size if not (x and y) else i * width + j + (size if x != y else 0)
             for i, x in row_at for j, y in col_at]
    # 2 * size + 1 entries at most of the dim ** (ra + rb) of the product
    gathers = _GATHERS[dim, ra, rb, rows, cols] = (
        _getter(kept_rows, dim ** ra) if rows else None,
        _getter(kept_cols, dim ** rb) if cols else None, _getter(table, dim ** (ra + rb)))
    return gathers


def _halves(dim: int, r: int, p):
    """(at, kept) for the offsets of r slots, skew in slots p and p + 1 or,
    for p None, in none: kept the offsets with index i < j there, ascending,
    and at[off] = (k, sign) with off sign times kept entry k, sign 0 where
    i = j."""
    if p is None:
        return [(off, 1) for off in range(dim ** r)], list(range(dim ** r))
    # a mirror with i > j comes after its kept entry, i < j
    stride, kept, at = dim ** (r - 2 - p), {}, []
    for off, idx in enumerate(itertools.product(range(dim), repeat=r)):
        i, j = idx[p], idx[p + 1]
        if i < j:
            kept[off] = len(kept)
        at.append((kept[off], 1) if i < j else (0, 0) if i == j else
                  (kept[off + (i - j) * (1 - dim) * stride], -1))
    return at, list(kept)


def _transposed(values: list, dim: int, perm: tuple) -> list:
    """Components, on either form, transposed by perm: the (dim, perm)
    getter of ``transpose``."""
    return list((_GATHERS.get((dim, perm)) or _gather(dim, perm))(values))


# ---------------------------------------------------------------------------
# the two storage forms: clearing and lifting (cancelling is scalars._canonical)


def _matrix(m, params: tuple, dim: int):
    """(rows, d) with m = rows / d, for a dim x dim matrix m: a rank-2
    Tensor of the context as it is held, nested rows of Scalars through
    ``_cleared``.  ValueError on a matrix of another size."""
    if type(m) is not Tensor:
        if len(m) != dim or any(len(row) != dim for row in m):
            raise ValueError("expected a %d x %d matrix, got row lengths %s"
                             % (dim, dim, [len(row) for row in m]))
        return _cleared(m, params)
    if m.rank != 2 or m.dim != dim or (m.params is not params and m.params != params):
        raise ValueError("matrix is not a rank-2 tensor of the parameter context "
                         "and dimension %d" % dim)
    return _rows(m._nums, m.dim), m._den


def _signs(rows: list, d):
    """The diagonal of (rows, d) when that is a diagonal of 1 and -1 over 1."""
    diag = d == 1 and tuple([row[i] for i, row in enumerate(rows)])
    if diag and set(diag) <= {1, -1} and sum(map(bool, itertools.chain(*rows))) == len(diag):
        return diag


def _cleared(m: list, params: tuple):
    """(rows, d) with m = rows / d, for a matrix m of Scalars of the context:
    ints over the positive lcm of the entry denominators when every entry
    is a constant, else polynomial dicts over the least common multiple of
    the entry denominators, with positive leading coefficient.  On one row
    of canonical Scalars that is the row's canonical form: each factor of d
    divides some entry's denominator to its full power, and that entry's
    numerator does not have it."""
    den, constant = 1, True
    for row in m:
        for x in row:
            if x.params is not params and x.params != params:
                raise ValueError("scalars come from different parameter contexts")
            v = x.value
            if v is None:
                constant = False
            elif type(v) is not int:
                den = _int_lcm(den, v.denominator)
    if constant:
        return [[x.value.numerator * (den // x.value.denominator) for x in row]
                for row in m], den
    den = None
    for row in m:
        for x in row:
            if x:
                d = x.den
                if den is None:
                    den = d
                elif d is not den and d != den:
                    den = _lcm(den, d)
    return [[{} if not x else x.num if x.den is den or x.den == den else
             _dict_mul(x.num, _exquo(den, x.den)) for x in row] for row in m], den


def _scalars(nums: list, den, params: tuple) -> list:
    """The Scalars nums[k] / den of the context, sharing one zero: on the
    int form also one unit denominator, else each through ``_make``."""
    zero = Scalar.zero(params)
    if type(den) is dict:
        return [Scalar._make(params, x, den) if x else zero for x in nums]
    return [Scalar._of_value(params, Fraction(x, den) if den > 1 else x)
            if x else zero for x in nums]


def _lift(values: list) -> list:
    """Ints as constant polynomials; nested lists row by row."""
    return [_lift(x) if type(x) is list else {0: x} if x else {} for x in values]


def _as_poly(values: list, den):
    """(values, den) on polynomial dicts, the int form lifted."""
    if type(den) is dict:
        return values, den
    return _lift(values), {0: den}


def _joint(forms: list) -> list:
    """(values, den) pairs in one form: as they are when every den is an
    int, else each on polynomial dicts."""
    if all(type(den) is int for _, den in forms):
        return forms
    return [_as_poly(values, den) for values, den in forms]


def _times(a, b):
    """The product of two denominators of one form."""
    return a * b if type(a) is int else _dict_mul(a, b)


def _mul(a: list, b: list, poly: bool) -> list:
    """The one multiply-accumulate, on ints or, when poly, on polynomial
    dicts: row i of the product adds up the rows of b scaled by the nonzero
    entries of row i of a, in ascending column order; a zero entry of b
    makes no term, and a row of b no entry of a reads makes no term list.
    On dicts each entry accumulates in place, and a constant factor only
    scales the other's coefficients."""
    width = len(b[0]) if b else 0
    read = list(map(any, zip(*a)))
    out = []
    if not poly:
        terms = [[(j, y) for j, y in enumerate(row) if y] if used else ()
                 for row, used in zip(b, read)]
        for row in a:
            acc = [0] * width
            for x, b_row in zip(row, terms):
                if x:
                    for j, y in b_row:
                        acc[j] += x * y
            out.append(acc)
        return out
    # a constant has one key, the zero exponent
    terms = [[(j, y.get(0) if len(y) == 1 else None, list(y.items()))
              for j, y in enumerate(row) if y] if used else ()
             for row, used in zip(b, read)]
    for row in a:
        acc = [{} for _ in range(width)]
        for x, b_row in zip(row, terms):
            if not x:
                continue
            c = x.get(0) if len(x) == 1 else None
            if c is not None:
                for j, _, y in b_row:
                    d = acc[j]
                    for e, v in y:
                        d[e] = d.get(e, 0) + c * v
                continue
            xs = list(x.items())
            for j, c, y in b_row:
                d = acc[j]
                if c is not None:
                    for e, v in xs:
                        d[e] = d.get(e, 0) + v * c
                    continue
                for eb, vb in y:
                    for ea, va in xs:
                        e = ea + eb
                        d[e] = d.get(e, 0) + va * vb
        out.append([{e: v for e, v in d.items() if v} if 0 in d.values() else d
                    for d in acc])
    return out


# ---------------------------------------------------------------------------
# small exact matrices: rows of Scalars, or a rank-2 Tensor as it is held


def mat_identity(dim: int, params: tuple) -> list:
    one, zero = Scalar.one(params), Scalar.zero(params)
    return [[one if i == j else zero for j in range(dim)] for i in range(dim)]


def mat_transpose(m: list) -> list:
    return [list(row) for row in zip(*m)]


def mat_mul(a: list, b: list) -> list:
    """Matrix product of Scalar matrices of one context, by ``_mul`` on
    both cleared to one form, each entry of the product made once.  The
    width of the product is that of b's first row."""
    params = next((row[0].params for row in itertools.chain(a, b) if row), ())
    (ra, da), (rb, db) = _joint([_cleared(a, params), _cleared(b, params)])
    den = _times(da, db)
    return [_scalars(row, den, params) for row in _mul(ra, rb, type(den) is dict)]


def row_reduce(m):
    """Gauss-Jordan elimination of a (possibly rectangular) matrix of
    Scalars, or of a rank-2 Tensor.

    Returns (rref, pivots, minors, swaps): the reduced row echelon form (a
    Tensor of m's variance when m is a Tensor), the pivot column of each
    nonzero row, the minors (minors[k - 1] the det of the row-swapped matrix
    on its first k rows and pivot columns) and the number of row swaps.  A
    square matrix has determinant (-1)**swaps times the last minor when
    every column is a pivot column, else zero.

    Both paths take as pivot the first nonzero entry at or below the next
    pivot row, so they make the same swaps.  When every entry is a constant
    of one context the elimination is fraction-free (Bareiss) on the ints of
    m = A / d (``_bareiss``), and Scalars are built only for the result.
    Otherwise the loop runs on the Scalars, normalises each pivot row and
    multiplies the pivot values into the minors: fraction-free steps there
    would divide polynomials."""
    rref, den, pivots, minors, swaps, params = _reduce(m)
    return (_shaped(rref, den, params, m.variance if type(m) is Tensor else None),
            pivots, minors, swaps)


def pivot_columns(m) -> list:
    """The pivot columns of ``row_reduce(m)``, from its elimination alone:
    no rref and no minor is built."""
    return _eliminated(*_operand(m)[:2])[2]


def _operand(m):
    """(rows, d, params) of a matrix m, a rank-2 Tensor or rows of Scalars of
    one context: when every entry is a constant, int rows over an int d > 0
    with m = rows / d (a Tensor as it is held, rows of Scalars through
    ``_cleared``), which the caller may overwrite; else rows of Scalars and
    d None."""
    if type(m) is Tensor:
        rows, d = _matrix(m, m.params, m.dim)
        return (rows, d, m.params) if type(d) is int else (_rows(m.comps, m.dim), None, m.params)
    params = m[0][0].params if m and m[0] else ()
    if all(x.value is not None for row in m for x in row):
        return (*_cleared(m, params), params)
    return m, None, params


def _reduce(m):
    """(rref, den, pivots, minors, swaps, params) of ``row_reduce(m)``, the
    rref as ``_shaped`` reads it and the minors as Scalars: on a constant m
    = A / d, pivot k over d**k."""
    rows, d, params = _operand(m)
    rref, den, pivots, values, swaps = _eliminated(rows, d)
    minors = list(itertools.accumulate(values, operator.mul)) if d is None else \
        [Scalar.constant(params, Fraction(p, d ** k)) for k, p in enumerate(values, 1)]
    return rref, den, pivots, minors, swaps, params


def _shaped(rows: list, den, params: tuple, variance):
    """The matrix rows / den as a Tensor of the variance, or as rows of
    Scalars when variance is None; den is None when rows hold Scalars, else
    an int over which rows hold ints."""
    if variance is not None:
        if den is None:
            return coefficient_tensor(rows, variance)
        return Tensor._new(len(rows), variance, params, [x for row in rows for x in row], den)
    return rows if den is None else [_scalars(row, den, params) for row in rows]


def _eliminated(rows: list, d):
    """The elimination of (rows, d) from ``_operand``: Bareiss on int rows
    over an int d, else Gauss-Jordan on Scalars; (rref, den, pivots,
    values, swaps), values the pivot values (Bareiss's are the minors)."""
    return _gauss_jordan(rows) if d is None else _bareiss(rows)


def _gauss_jordan(m: list):
    """The elimination of rows of Scalars: (rref, None, pivots, values, swaps)."""
    work = [list(row) for row in m]
    rows, cols = len(work), len(work[0])
    one = Scalar.one(work[0][0].params)
    pivots, values, swaps = [], [], 0
    for col in range(cols):
        r = len(pivots)
        pivot = next((k for k in range(r, rows) if not work[k][col].is_zero), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            swaps += 1
        value = work[r][col]
        inv = one / value
        work[r] = [x * inv for x in work[r]]
        for k in range(rows):
            if k == r or work[k][col].is_zero:
                continue
            factor = work[k][col]
            work[k] = [x - factor * y for x, y in zip(work[k], work[r])]
        pivots.append(col)
        values.append(value)
        if len(pivots) == rows:
            break
    return work, None, pivots, values, swaps


def _bareiss(work: list):
    """The elimination of int rows A, which it overwrites, fraction-free:
    (rref, den, pivots, minors, swaps) with the rref as int rows over den >
    0 and minors the int pivots.  With p the new pivot and q the one before
    it (1 at first), every other row becomes (p * row - a * pivot row) // q,
    a its entry in the pivot column.  After k pivots an entry of a pivot row
    is a k-minor of the row-swapped A (Cramer) and an entry of any other row
    a (k+1)-minor (Sylvester), so every division is exact: pivot k is the
    leading minor of the pivot columns, and the rref is A / p_last.

    Row k is its Bareiss row times minors[level[k]] / minors[-1]: a step
    that would only scale it by p / q (a = 0) leaves it, and the next step
    that needs it scales it up to date, exactly."""
    rows, cols = len(work), len(work[0]) if work else 0
    pivots, minors, swaps, level = [], [1], 0, [0] * rows
    for col in range(cols):
        r = len(pivots)
        pivot = next((k for k in range(r, rows) if work[k][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            level[r], level[pivot] = level[pivot], level[r]
            swaps += 1
        q = minors[-1]
        for k in range(rows):
            if level[k] < r and (k == r or work[k][col]):
                work[k] = [x * q // minors[level[k]] for x in work[k]]
        top, p = work[r], work[r][col]
        for k in range(rows):
            a = work[k][col]
            if k != r and a:
                work[k] = [(p * x - a * y) // q for x, y in zip(work[k], top)]
                level[k] = r + 1
        level[r] = r + 1
        pivots.append(col)
        minors.append(p)
        if len(pivots) == rows:
            break
    last, rank = minors[-1], len(pivots)
    work = [row if lev == rank else [x * last // minors[lev] for x in row]
            for row, lev in zip(work, level)]
    if last < 0:
        work, last = [[-x for x in row] for row in work], -last
    return work, last, pivots, minors[1:], swaps


def null_space(m: list) -> list:
    """A basis of {v : m v = 0}, read from the rref of m's elimination: one
    vector per free column, with 1 there, 0 at the other free columns and
    -rref[row][free] at the pivot column of each row; empty at full rank."""
    if not m or not m[0] or any(len(row) != len(m[0]) for row in m):
        raise ValueError("expected a matrix with rows and columns, got row lengths %s"
                         % [len(row) for row in m])
    rows, d, params = _operand(m)
    rref, den, pivots, _, _ = _eliminated(rows, d)
    one, zero = Scalar.one(params), Scalar.zero(params)
    row_of = dict(zip(pivots, _shaped(rref, den, params, None)))
    return [[-row_of[col][free] if col in row_of else one if col == free else zero
             for col in range(len(m[0]))]
            for free in range(len(m[0])) if free not in row_of]


def _square(m) -> int:
    """The size of m, a Tensor's dimension; ValueError unless m is a
    non-empty square matrix."""
    if type(m) is Tensor:
        return m.dim
    n = len(m)
    if not n or any(len(row) != n for row in m):
        raise ValueError("expected a non-empty square matrix, got row lengths %s"
                         % [len(row) for row in m])
    return n


def leading_minors(m) -> list:
    """Leading principal minors of a square matrix, rows of Scalars or a
    rank-2 Tensor, the last its determinant: the minors of one elimination,
    without its rref.  Rows are swapped only where a leading minor
    vanishes; then all but det (signed by the swaps) are None."""
    n = _square(m)
    _, _, pivots, minors, swaps, params = _reduce(m)
    if len(pivots) < n:
        return [None] * (n - 1) + [Scalar.zero(params)]
    if swaps:
        return [None] * (n - 1) + [-minors[-1] if swaps % 2 else minors[-1]]
    return minors


def mat_det(m) -> Scalar:
    return leading_minors(m)[-1]


def mat_inv(m):
    """The inverse of a square matrix: rows of Scalars for rows of Scalars;
    for a rank-2 Tensor a Tensor, each slot's variance flipped and the two
    swapped (a ``dd`` metric inverts to ``uu``, a ``ud`` map to ``ud``).
    ValueError("matrix is singular") when it has none.  A constant m = A / d
    eliminates [A | d I] on ints to [I | d A^-1] times the last pivot, whose
    right half over that pivot is the inverse; no minor is built."""
    n = _square(m)
    rows, d, params = _operand(m)
    unit, zero = (Scalar.one(params), Scalar.zero(params)) if d is None else (d, 0)
    rref, den, pivots, _, _ = _eliminated([list(row) + [unit if i == j else zero for j in range(n)]
                                           for i, row in enumerate(rows)], d)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    variance = "".join("d" if v == "u" else "u" for v in reversed(m.variance)) \
        if type(m) is Tensor else None
    return _shaped([row[n:] for row in rref], den, params, variance)
