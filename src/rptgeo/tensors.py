"""Dense tensors of exact Scalars over a small frame, plus matrix helpers.

Slots are 0-based in this API; variance is a string over ``u`` (vector
slot) and ``d`` (covector slot).  Components live in a flat row-major list.

``mat_mul`` is the one dense product.  When every entry of both operands
is a constant of one context it runs on ints over one common denominator
and makes each entry of the product once; otherwise it runs on Scalars.
``transpose`` reads its output through a table of input offsets.
``map_slot`` with a diagonal matrix, such as P = diag(I, -I) in a
P-eigenbasis, maps each slice of the slot by its entry (1 copies, -1
negates, any other entry multiplies); any other matrix, and the
contractions ``compose`` and ``tensor_contract``, is one ``mat_mul`` on rows
of components.  ``compose`` builds the torsion inner products, and covariant
derivatives and curvature from connection coefficients.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm as _int_lcm
from typing import Sequence

from .scalars import Scalar

Matrix = "list[list[Scalar]]"


class Tensor:
    __slots__ = ("dim", "variance", "params", "comps")

    def __init__(self, dim: int, variance: str, params: tuple, comps: list):
        if len(comps) != dim ** len(variance):
            raise ValueError("component list has wrong length")
        if any(v not in "ud" for v in variance):
            raise ValueError("variance must be a string over 'u'/'d'")
        self.dim = dim
        self.variance = variance
        self.params = params
        self.comps = comps

    # construction ----------------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, variance: str, params: tuple) -> "Tensor":
        zero = Scalar.zero(params)
        return cls(dim, variance, params, [zero] * dim ** len(variance))

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

    def _like(self, comps: list) -> "Tensor":
        return Tensor(self.dim, self.variance, self.params, comps)

    def _check_compatible(self, other: "Tensor"):
        if (self.dim, self.variance, self.params) != (other.dim, other.variance, other.params):
            raise ValueError("tensors have different shape or context")

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return self._like([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return self._like([a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self) -> "Tensor":
        return self._like([-a for a in self.comps])

    def scale(self, factor) -> "Tensor":
        if isinstance(factor, (int, Fraction)):
            factor = Scalar.constant(self.params, factor)
        return self._like([factor * a for a in self.comps])

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.dim, self.variance, self.params) == \
            (other.dim, other.variance, other.params) and self.comps == other.comps

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def substitute(self, values) -> "Tensor":
        """Evaluate every component; result lives in an empty parameter context."""
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
            table = [off + step for off in table for step in range(0, n * stride, stride)]
        comps = self.comps
        return Tensor(n, variance, self.params, [comps[off] for off in table])

    def map_slot(self, matrix: list, slot: int) -> "Tensor":
        """Compose a (1,1) map into one slot (covariant: M^a_i feeds slot).

        A diagonal matrix scales each slice of the slot by its entry: 1
        copies the slice and -1 negates it, with no Scalar multiplication;
        any other entry multiplies.  Any other matrix is one ``mat_mul``:
        the slot moves to last place, each row of components is multiplied
        by M, or by M^T on a vector slot, and the slot moves back."""
        n = self.dim
        stride = n ** (self.rank - 1 - slot)
        block = stride * n
        if all(x.is_zero for i, row in enumerate(matrix) for j, x in enumerate(row)
               if i != j):
            diag = [row[i] for i, row in enumerate(matrix)]
            out = []
            for base in range(0, len(self.comps), block):
                for i, d in enumerate(diag):
                    part = self.comps[base + i * stride:base + (i + 1) * stride]
                    if d.value == 1:
                        out += part
                    elif d.value == -1:
                        out += [-c for c in part]
                    else:
                        out += [d * c for c in part]
            return Tensor(n, self.variance, self.params, out)
        # the slot moves to last place: slot j of the move is slot order[j]
        order = [k for k in range(self.rank) if k != slot] + [slot]
        to_last = [order.index(k) for k in range(self.rank)]
        last = self.transpose(to_last) if stride > 1 else self
        if self.variance[slot] == "u":
            matrix = mat_transpose(matrix)
        prod = mat_mul(_rows(last, n), matrix)
        out = Tensor(n, last.variance, self.params, [x for row in prod for x in row])
        return out.transpose(order) if stride > 1 else out

    def lower_slot(self, slot: int, metric: list) -> "Tensor":
        if self.variance[slot] != "u":
            raise ValueError("slot is already covariant")
        t = self.map_slot(metric, slot)
        var = self.variance[:slot] + "d" + self.variance[slot + 1:]
        return Tensor(self.dim, var, self.params, t.comps)

    def raise_slot(self, slot: int, metric_inv: list) -> "Tensor":
        if self.variance[slot] != "d":
            raise ValueError("slot is already contravariant")
        # map_slot reads matrix[a][i] on a covariant slot; the inverse metric
        # is symmetric (validate enforces a symmetric metric), so that is g^ia
        t = self.map_slot(metric_inv, slot)
        var = self.variance[:slot] + "u" + self.variance[slot + 1:]
        return Tensor(self.dim, var, self.params, t.comps)


def coefficient_tensor(nested: list) -> Tensor:
    """Tensor holding nested[i][j][k] at (i, j, k), for a dim x dim x dim array
    such as the structure constants c^k_ij."""
    comps = [x for row in nested for cell in row for x in cell]
    return Tensor(len(nested), "ddu", comps[0].params, comps)


def _rows(t: Tensor, width: int) -> list:
    """The components of t as a matrix with rows of the given width."""
    return [t.comps[k:k + width] for k in range(0, len(t.comps), width)]


def compose(a: Tensor, b: Tensor) -> Tensor:
    """Contract the last slot of a, a vector slot, with the first slot of b,
    a covector slot: C(.., x, y, ..) = sum_s a(.., x, e^s) b(e_s, y, ..)."""
    if a.dim != b.dim or a.params != b.params:
        raise ValueError("tensors have different dimension or context")
    if a.variance[-1:] != "u" or b.variance[:1] != "d":
        raise ValueError("compose needs a vector slot last in a and a covector "
                         "slot first in b")
    n = a.dim
    prod = mat_mul(_rows(a, n), _rows(b, len(b.comps) // n))
    return Tensor(n, a.variance[:-1] + b.variance[1:], a.params,
                  [x for row in prod for x in row])


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
    rows = _rows(t.transpose([order.index(k) for k in range(r)]), n ** (r - 2))
    if metric is None:
        comps = [sum(col, Scalar.zero(t.params)) for col in zip(*rows[::n + 1])]
    else:
        comps = mat_mul([[m for row in metric for m in row]], rows)[0]
    return Tensor(n, "".join(t.variance[k] for k in keep), t.params, comps)


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


def alternate(t: Tensor, slots) -> Tensor:
    """Full antisymmetrization over the given slots, normalized by 1/k!."""
    slots = list(slots)
    if len(set(slots)) != len(slots):
        raise ValueError("alternation slots must be distinct")
    if len({t.variance[s] for s in slots}) != 1:
        raise ValueError("alternation slots must have equal variance")
    total = None
    for sigma in itertools.permutations(range(len(slots))):
        sign = _perm_sign(sigma)
        perm = list(range(t.rank))
        for pos, s in enumerate(slots):
            perm[s] = slots[sigma[pos]]
        term = t.transpose(perm)
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total.scale(Fraction(1, factorial(len(slots))))


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
    denominators, or None when an entry is not a constant of the context."""
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


def mat_mul(a: list, b: list) -> list:
    """Matrix product, the one dense multiply-accumulate of the package.

    Row i of the product adds up the rows of b scaled by the nonzero entries
    of row i of a, in ascending column order; a zero entry of b makes no
    term.  The width of the product is that of b's first row.  When every
    entry of both is a constant of one context, the rows run on ints over
    one common denominator and each entry of the product is made once;
    otherwise they run on Scalars."""
    width = len(b[0]) if b else 0
    zero = Scalar.zero(a[0][0].params) if a and a[0] else None
    cleared_a = _cleared(a, zero.params) if zero is not None else None
    cleared_b = _cleared(b, zero.params) if cleared_a is not None else None
    if cleared_b is not None:
        (a_int, da), (b_int, db) = cleared_a, cleared_b
        params, unit, den = zero.params, a[0][0].den, da * db
        terms = [[(j, y) for j, y in enumerate(row) if y] for row in b_int]
        out = []
        for row in a_int:
            acc = [0] * width
            for x, b_row in zip(row, terms):
                if x:
                    for j, y in b_row:
                        acc[j] += x * y
            out.append([Scalar._of_value(params, Fraction(s, den) if den > 1 else s, unit)
                        if s else zero for s in acc])
        return out
    terms = [[(j, y) for j, y in enumerate(row) if not y.is_zero] for row in b]
    out = []
    for row in a:
        acc = [None] * width
        for x, b_row in zip(row, terms):
            if x.is_zero:
                continue
            for j, y in b_row:
                term = x * y
                acc[j] = term if acc[j] is None else acc[j] + term
        out.append([zero if s is None else s for s in acc])
    return out


def row_reduce(m: list):
    """Gauss-Jordan elimination of a (possibly rectangular) matrix.

    Returns (rref, pivots, values, swaps): the reduced row echelon form, the
    pivot column of each nonzero row, the value each pivot had before its
    row was normalised, and the number of row swaps.  A square matrix has
    determinant (-1)**swaps times the product of the values when every
    column is a pivot column, and zero otherwise."""
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


def leading_minors(m: list) -> list:
    """Leading principal minors of a square matrix, the last its determinant:
    the running products of the pivot values of one elimination.  Rows are
    swapped only where a leading minor vanishes; then all but det are None."""
    _, pivots, values, swaps = row_reduce(m)
    n, params = len(m), m[0][0].params
    if len(pivots) < n:
        return [None] * (n - 1) + [Scalar.zero(params)]
    minors = list(itertools.accumulate(
        values, lambda a, b: a * b, initial=Scalar.constant(params, (-1) ** swaps)))[1:]
    return [None] * (n - 1) + minors[-1:] if swaps else minors


def mat_det(m: list) -> Scalar:
    return leading_minors(m)[-1]


def mat_inv(m: list) -> list:
    n = len(m)
    augmented = [list(row) + idrow
                 for row, idrow in zip(m, mat_identity(n, m[0][0].params))]
    rref, pivots, _, _ = row_reduce(augmented)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rref]
