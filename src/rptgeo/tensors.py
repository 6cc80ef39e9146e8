"""Dense tensors over a small frame, plus matrix helpers.

Slots are 0-based in this API; variance is a string over ``u`` (vector
slot) and ``d`` (covector slot).  Components live in a flat row-major list.

Storage is chosen only from the entries.  A tensor whose entries are all
constants of its context holds int numerators ``nums`` over one positive
int ``den``, kept canonical: gcd(den, *nums) = 1, so ``==`` compares the
two lists.  Any other tensor holds exact Scalars.  ``comps`` always reads
Scalars: on the int form it is a view built once, where Scalars are read
(witnesses, printing, report scalars, golden comparisons).  A tensor given
to the constructor is scanned for the int form once, on first use; one that
an op built on Scalars is never scanned.

Every op reads the int form when each of its operands (tensors and
matrices) has it, and Scalars otherwise.  Every product is one
multiply-accumulate, ``_mul``: the same loop on ints, starting from 0, or on
Scalars, starting from the zero of their context, where a zero entry makes
no term.  The tensor products (``compose``, ``tensor_contract`` with a
metric, ``map_slot`` with a dense matrix) call it on the form their operands
share; ``mat_mul`` calls it on the ints of two constant matrices cleared to
one denominator, else on their Scalars.  ``transpose`` reads its output
through a table of input offsets.  ``map_slot`` with a diagonal matrix, such
as P = diag(I, -I) in a P-eigenbasis, scales each slice of the slot by its
entry (on Scalars 1 copies and -1 negates); any other matrix is one product
on rows of components.  ``compose`` builds the torsion inner products, and
covariant derivatives and curvature from connection coefficients.

The small exact matrices have one elimination, ``row_reduce``, behind
``leading_minors``, ``mat_det`` and ``mat_inv``.  Like ``mat_mul`` it runs on
the cleared ints of a constant matrix, fraction-free (Bareiss): every entry
it makes is a minor, so every division is exact.  Else it is Gauss-Jordan
on the Scalars.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Sequence

from .scalars import Scalar

Matrix = "list[list[Scalar]]"


class Tensor:
    __slots__ = ("dim", "variance", "params", "_comps", "_ints")

    def __init__(self, dim: int, variance: str, params: tuple, comps: list):
        if len(comps) != dim ** len(variance):
            raise ValueError("component list has wrong length")
        if any(v not in "ud" for v in variance):
            raise ValueError("variance must be a string over 'u'/'d'")
        self.dim = dim
        self.variance = variance
        self.params = params
        self._comps = comps
        self._ints = None  # not scanned yet

    # construction ----------------------------------------------------------

    @classmethod
    def _new(cls, dim: int, variance: str, params: tuple, values: list, den=None):
        """A tensor an op made: on Scalars when den is None, marked so it is
        never scanned; else on the int numerators values over den > 0."""
        t = object.__new__(cls)
        t.dim, t.variance, t.params = dim, variance, params
        if den is None:
            t._comps, t._ints = values, False
        else:
            if den > 1:
                g = _int_gcd(den, *values)
                if g > 1:
                    values, den = [x // g for x in values], den // g
            t._comps, t._ints = None, (values, den)
        return t

    @classmethod
    def zeros(cls, dim: int, variance: str, params: tuple) -> "Tensor":
        return cls._new(dim, variance, params, [0] * dim ** len(variance), 1)

    # storage -----------------------------------------------------------------

    @property
    def comps(self) -> list:
        """The components as Scalars; on the int form a view built once."""
        if self._comps is None:
            self._comps = _scalars(*self._ints, self.params)
        return self._comps

    @property
    def ints(self):
        """(nums, den) on the int form, else None; a tensor given Scalars is
        scanned on the first read."""
        if self._ints is None:
            cleared = _cleared([self._comps], self.params)
            self._ints = (cleared[0][0], cleared[1]) if cleared else False
        return self._ints or None

    def _values(self):
        """(nums, den) on the int form, else (Scalars, None)."""
        return self.ints or (self.comps, None)

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

    def _like(self, values: list, den=None) -> "Tensor":
        return Tensor._new(self.dim, self.variance, self.params, values, den)

    def _check_compatible(self, other: "Tensor"):
        if (self.dim, self.variance, self.params) != (other.dim, other.variance, other.params):
            raise ValueError("tensors have different shape or context")

    def __add__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, 1)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, -1)

    def _combine(self, other: "Tensor", sign: int) -> "Tensor":
        """self + sign * other."""
        self._check_compatible(other)
        a = self.ints
        b = a and other.ints
        if b and a[1] != b[1]:
            den = _int_lcm(a[1], b[1])
            fa, fb = den // a[1], sign * (den // b[1])
            return self._like([x * fa + y * fb for x, y in zip(a[0], b[0])], den)
        (xs, den), ys = (a, b[0]) if b else ((self.comps, None), other.comps)
        return self._like([x + y for x, y in zip(xs, ys)] if sign > 0 else
                          [x - y for x, y in zip(xs, ys)], den)

    def __neg__(self) -> "Tensor":
        values, den = self._values()
        return self._like([-x for x in values], den)

    def scale(self, factor) -> "Tensor":
        """The tensor times an int, a Fraction or a Scalar of its context."""
        if isinstance(factor, (int, Fraction)):
            factor = Scalar.constant(self.params, factor)
        q = factor.value if factor.params == self.params else None
        ints = self.ints if q is not None else None
        if ints:
            return self._like([x * q.numerator for x in ints[0]], ints[1] * q.denominator)
        return self._like([factor * a for a in self.comps])

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if (self.dim, self.variance, self.params) != (other.dim, other.variance, other.params):
            return False
        a = self.ints
        b = a and other.ints
        return a == b if b else self.comps == other.comps

    @property
    def is_zero(self) -> bool:
        return not any(self._values()[0])

    def substitute(self, values) -> "Tensor":
        """Evaluate every component; result lives in an empty parameter context."""
        ints = self.ints
        if ints:
            return Tensor._new(self.dim, self.variance, (), *ints)
        comps = [Scalar.constant((), c.substitute(values)) for c in self.comps]
        return Tensor(self.dim, self.variance, (), comps)

    # slot operations -----------------------------------------------------------

    def transpose(self, perm: Sequence[int]) -> "Tensor":
        """Tensor N with N(x_0,..) = T(x_{perm[0]},..)."""
        perm = tuple(perm)
        r, n = self.rank, self.dim
        if sorted(perm) != list(range(r)):
            raise ValueError("perm must be a permutation of the slots")
        inv = [0] * r
        for pos, p in enumerate(perm):
            inv[p] = pos
        variance = "".join(self.variance[inv[k]] for k in range(r))
        # output slot k walks input slot inv[k], whose stride is n**(r-1-inv[k])
        table = [0]
        for k in range(r):
            stride = n ** (r - 1 - inv[k])
            steps = range(0, n * stride, stride)
            table = [off + step for off in table for step in steps]
        values, den = self._values()
        return Tensor._new(n, variance, self.params, [values[off] for off in table], den)

    def map_slot(self, matrix: list, slot: int) -> "Tensor":
        """Compose a (1,1) map into one slot (covariant: M^a_i feeds slot).

        A diagonal matrix scales each slice of the slot by its entry; on
        Scalars 1 copies the slice and -1 negates it, with no
        multiplication.  Any other matrix is one product: the slot moves to
        last place, each row of components is multiplied by M, or by M^T on
        a vector slot, and the slot moves back."""
        n = self.dim
        stride = n ** (self.rank - 1 - slot)
        if all(x.is_zero for i, row in enumerate(matrix) for j, x in enumerate(row)
               if i != j):
            values, matrix, den = self._with_matrix(matrix)
            if den is not None:
                diag = [row[i] for i, row in enumerate(matrix) for _ in range(stride)]
                return self._like([x * d for x, d in zip(values, itertools.cycle(diag))], den)
            out = []
            for base in range(0, len(values), stride * n):
                for i, row in enumerate(matrix):
                    d, part = row[i], values[base + i * stride:base + (i + 1) * stride]
                    out += part if d.value == 1 else [-x for x in part] \
                        if d.value == -1 else [d * x for x in part]
            return self._like(out)
        # the slot moves to last place: slot j of the move is slot order[j]
        order = [k for k in range(self.rank) if k != slot] + [slot]
        last = self.transpose([order.index(k) for k in range(self.rank)]) \
            if stride > 1 else self
        values, matrix, den = last._with_matrix(
            mat_transpose(matrix) if self.variance[slot] == "u" else matrix)
        out = last._like(_product(_rows(values, n), matrix, den, self.params), den)
        return out.transpose(order) if stride > 1 else out

    def _with_matrix(self, matrix: list):
        """(values, matrix, den): the int numerators and the cleared matrix,
        with den the product of their denominators, when both are int; else
        the Scalars, the matrix and None."""
        ints = self.ints
        cleared = _cleared(matrix, self.params) if ints else None
        if cleared is None:
            return self.comps, matrix, None
        return ints[0], cleared[0], ints[1] * cleared[1]

    def lower_slot(self, slot: int, metric: list) -> "Tensor":
        if self.variance[slot] != "u":
            raise ValueError("slot is already covariant")
        t = self.map_slot(metric, slot)
        var = self.variance[:slot] + "d" + self.variance[slot + 1:]
        return Tensor._new(self.dim, var, self.params, *t._values())

    def raise_slot(self, slot: int, metric_inv: list) -> "Tensor":
        if self.variance[slot] != "d":
            raise ValueError("slot is already contravariant")
        # map_slot reads matrix[a][i] on a covariant slot; the inverse metric
        # is symmetric (validate enforces a symmetric metric), so that is g^ia
        t = self.map_slot(metric_inv, slot)
        var = self.variance[:slot] + "u" + self.variance[slot + 1:]
        return Tensor._new(self.dim, var, self.params, *t._values())


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


def _product(a: list, b: list, den, params: tuple) -> list:
    """The flat entries of the matrix product a.b: on ints when den is not
    None, else on Scalars of the context."""
    rows = _mul(a, b, 0 if den is not None else Scalar.zero(params))
    return [x for row in rows for x in row]


def compose(a: Tensor, b: Tensor) -> Tensor:
    """Contract the last slot of a, a vector slot, with the first slot of b,
    a covector slot: C(.., x, y, ..) = sum_s a(.., x, e^s) b(e_s, y, ..)."""
    if a.dim != b.dim or a.params != b.params:
        raise ValueError("tensors have different dimension or context")
    if a.variance[-1:] != "u" or b.variance[:1] != "d":
        raise ValueError("compose needs a vector slot last in a and a covector "
                         "slot first in b")
    ai = a.ints
    bi = ai and b.ints
    if bi:
        (av, ad), (bv, bd) = ai, bi
        den = ad * bd
    else:
        av, bv, den = a.comps, b.comps, None
    n = a.dim
    return Tensor._new(n, a.variance[:-1] + b.variance[1:], a.params,
                       _product(_rows(av, n), _rows(bv, len(bv) // n), den, a.params), den)


# ---------------------------------------------------------------------------
# the operations of the exact core


def tensor_contract(t: Tensor, slot_a: int, slot_b: int, metric=None) -> Tensor:
    """Contract two slots; pairing equal variances requires a metric matrix."""
    r = t.rank
    if not (0 <= slot_a < r and 0 <= slot_b < r) or slot_a == slot_b:
        raise ValueError("contraction slots out of range or equal")
    va, vb = t.variance[slot_a], t.variance[slot_b]
    if va == vb and metric is None:
        raise ValueError("contracting slots of equal variance needs a metric")
    if va != vb and metric is not None:
        raise ValueError("metric only applies when slot variances match")
    a, b = sorted((slot_a, slot_b))
    keep = [k for k in range(r) if k not in (a, b)]
    # slots a, b move to the front: row p * n + q holds t at a = p, b = q
    order = [a, b] + keep
    n = t.dim
    moved = t.transpose([order.index(k) for k in range(r)])
    if metric is None:
        values, den = moved._values()
        start = 0 if den is not None else Scalar.zero(t.params)
        comps = [sum(col, start) for col in zip(*_rows(values, n ** (r - 2))[::n + 1])]
    else:
        values, metric, den = moved._with_matrix(metric)
        comps = _product([[m for row in metric for m in row]],
                         _rows(values, n ** (r - 2)), den, t.params)
    return Tensor._new(n, "".join(t.variance[k] for k in keep), t.params, comps, den)


def cyclic_sum(t: Tensor, slots) -> Tensor:
    """Sum over the three cyclic rotations of the given slots."""
    s1, s2, s3 = slots
    if len({s1, s2, s3}) != 3:
        raise ValueError("cyclic sum needs three distinct slots")
    if len({t.variance[s] for s in (s1, s2, s3)}) != 1:
        raise ValueError("cyclic sum slots must have equal variance")
    perm = list(range(t.rank))
    perm[s1], perm[s2], perm[s3] = s2, s3, s1
    perm2 = list(range(t.rank))
    perm2[s1], perm2[s2], perm2[s3] = s3, s1, s2
    return t + t.transpose(perm) + t.transpose(perm2)


def _perm_sign(sigma) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = sigma[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


_VARS = {"x": 0, "y": 1, "z": 2, "w": 3}


def arranged(t: Tensor, pattern: str, product=None) -> Tensor:
    """Rearrange arguments by a pattern such as ``"Pz,x,Py"``.

    The result S satisfies S(x,y,z,..) = T(pattern), where a ``P`` prefix
    composes the product-structure matrix into that argument.
    """
    slots = [p.strip() for p in pattern.split(",")]
    if len(slots) != t.rank:
        raise ValueError("pattern arity does not match tensor rank")
    out = t
    perm = []
    for pos, spec in enumerate(slots):
        flag = spec.startswith("P")
        name = spec[1:] if flag else spec
        if name not in _VARS or _VARS[name] >= t.rank:
            raise ValueError("bad argument '%s' in pattern" % spec)
        perm.append(_VARS[name])
        if flag:
            if product is None:
                raise ValueError("pattern uses P but no product matrix given")
            out = out.map_slot(product, pos)
    if sorted(perm) != list(range(t.rank)):
        raise ValueError("pattern must use each argument exactly once")
    return out.transpose(perm)


# ---------------------------------------------------------------------------
# small exact matrices (lists of rows of Scalars)


def mat_identity(dim: int, params: tuple) -> list:
    one, zero = Scalar.one(params), Scalar.zero(params)
    return [[one if i == j else zero for j in range(dim)] for i in range(dim)]


def mat_transpose(m: list) -> list:
    return [list(row) for row in zip(*m)]


def _cleared(m: list, params: tuple):
    """(rows of ints, d) with m = rows / d and d the positive lcm of the entry
    denominators, or None when an entry is not a constant of the context.
    For a flat list of reduced entries gcd(d, *ints) = 1."""
    den = 1
    for row in m:
        for x in row:
            v = x.value
            if v is None or x.params is not params and x.params != params:
                return None
            if type(v) is not int:
                den = _int_lcm(den, v.denominator)
    return [[x.value.numerator * (den // x.value.denominator) for x in row]
            for row in m], den


def _scalars(nums: list, den: int, params: tuple) -> list:
    """The Scalars nums[k] / den of the context, sharing one zero and one
    unit denominator."""
    zero = Scalar.zero(params)
    unit = zero.den
    return [Scalar._of_value(params, Fraction(x, den) if den > 1 else x, unit)
            if x else zero for x in nums]


def _mul(a: list, b: list, zero) -> list:
    """The one multiply-accumulate, on ints with zero 0 or on Scalars with
    zero the zero Scalar of their context: row i of the product adds up the
    rows of b scaled by the nonzero entries of row i of a, in ascending
    column order; a zero entry of b makes no term."""
    width = len(b[0]) if b else 0
    terms = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [zero] * width
        for x, b_row in zip(row, terms):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_mul(a: list, b: list) -> list:
    """Matrix product of Scalar matrices, by ``_mul``: on ints when every
    entry of both is a constant of one context, cleared to one common
    denominator, with each entry of the product made once; else on the
    Scalars.  The width of the product is that of b's first row."""
    params = a[0][0].params if a and a[0] else ()
    cleared_a = _cleared(a, params)
    cleared_b = cleared_a and _cleared(b, params)
    if cleared_b:
        (a_int, da), (b_int, db) = cleared_a, cleared_b
        return [_scalars(row, da * db, params) for row in _mul(a_int, b_int, 0)]
    return _mul(a, b, Scalar.zero(params))


def row_reduce(m: list):
    """Gauss-Jordan elimination of a (possibly rectangular) matrix.

    Returns (rref, pivots, values, swaps): the reduced row echelon form, the
    pivot column of each nonzero row, the value each pivot had before its
    row was normalised, and the number of row swaps.  A square matrix has
    determinant (-1)**swaps times the product of the values when every
    column is a pivot column, and zero otherwise.

    Both paths take as pivot the first nonzero entry at or below the next
    pivot row, so they make the same swaps.  When every entry is a constant
    of one context the elimination is fraction-free (Bareiss) on the ints of
    m = A / d: with p the new pivot and q the one before it (1 at first),
    every other row becomes (p * row - a * pivot row) // q, a its entry in
    the pivot column (a row with a = 0 is only scaled by p / q, which waits
    until a later step needs the row).  After k pivots an entry of a pivot
    row is a k-minor of the row-swapped A (Cramer) and an entry of any other
    row a (k+1)-minor (Sylvester), so every division is exact.  Pivot k is
    the leading minor p_k of the pivot columns, its value
    p_k / (p_(k-1) * d), and the rref is A / p_last.  Otherwise the loop
    runs on the Scalars and normalises each pivot row: fraction-free steps
    there would divide polynomials."""
    params = m[0][0].params if m and m[0] else ()
    cleared = _cleared(m, params)
    if cleared:
        return _bareiss(*cleared, params)
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
    return work, pivots, values, swaps


def _bareiss(work: list, d: int, params: tuple):
    """``row_reduce`` of the constant matrix work / d on its int rows, which
    it overwrites.  Row k is its Bareiss row times minors[level[k]] /
    minors[-1]: a step that would only scale it by p / q leaves it, and the
    next step that needs it scales it up to date, exactly."""
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
    values = [Scalar.constant(params, Fraction(p, q * d) if p % (q * d) else p // (q * d))
              for q, p in zip(minors, minors[1:])]
    flat = _scalars([x for row in work for x in row], last, params)
    rref = [flat[k * cols:(k + 1) * cols] for k in range(rows)]
    return rref, pivots, values, swaps


def _square(m: list) -> int:
    """The size of m; ValueError unless m is a non-empty square matrix."""
    n = len(m)
    if not n or any(len(row) != n for row in m):
        raise ValueError("expected a non-empty square matrix, got row lengths %s"
                         % [len(row) for row in m])
    return n


def leading_minors(m: list) -> list:
    """Leading principal minors of a square matrix, the last its determinant:
    the running products of the pivot values of one elimination.  Rows are
    swapped only where a leading minor vanishes; then all but det are None."""
    n, params = _square(m), m[0][0].params
    _, pivots, values, swaps = row_reduce(m)
    if len(pivots) < n:
        return [None] * (n - 1) + [Scalar.zero(params)]
    minors = list(itertools.accumulate(
        values, lambda a, b: a * b, initial=Scalar.constant(params, (-1) ** swaps)))[1:]
    return [None] * (n - 1) + minors[-1:] if swaps else minors


def mat_det(m: list) -> Scalar:
    return leading_minors(m)[-1]


def mat_inv(m: list) -> list:
    n = _square(m)
    augmented = [list(row) + idrow
                 for row, idrow in zip(m, mat_identity(n, m[0][0].params))]
    rref, pivots, _, _ = row_reduce(augmented)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rref]
