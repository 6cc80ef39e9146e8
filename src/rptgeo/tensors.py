"""Dense tensors of exact Scalars over a small frame, plus matrix helpers.

Slots are 0-based in this API; variance is a string over ``u`` (vector
slot) and ``d`` (covector slot).  Components live in a flat row-major list.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

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

    @classmethod
    def build(cls, dim: int, variance: str, params: tuple,
              fn: Callable[[tuple], Scalar]) -> "Tensor":
        comps = [fn(idx) for idx in itertools.product(range(dim), repeat=len(variance))]
        return cls(dim, variance, params, comps)

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
        if sorted(perm) != list(range(self.rank)):
            raise ValueError("perm must be a permutation of the slots")
        inv = [0] * self.rank
        for pos, p in enumerate(perm):
            inv[p] = pos
        variance = "".join(self.variance[inv[k]] for k in range(self.rank))
        comps = [self.comps[self._offset(tuple(idx[p] for p in perm))]
                 for idx in self.indices()]
        return Tensor(self.dim, variance, self.params, comps)

    def map_slot(self, matrix: list, slot: int) -> "Tensor":
        """Compose a (1,1) map into one slot (covariant: M^a_i feeds slot)."""
        n = self.dim
        out = [None] * len(self.comps)
        stride = n ** (self.rank - 1 - slot)
        block = stride * n
        up = self.variance[slot] == "u"
        zero = Scalar.zero(self.params)
        for base in range(0, len(self.comps), block):
            for rest in range(stride):
                col = [self.comps[base + a * stride + rest] for a in range(n)]
                for i in range(n):
                    acc = None
                    for a in range(n):
                        m = matrix[i][a] if up else matrix[a][i]
                        if m.is_zero or col[a].is_zero:
                            continue
                        term = m * col[a]
                        acc = term if acc is None else acc + term
                    out[base + i * stride + rest] = acc if acc is not None else zero
        return Tensor(self.dim, self.variance, self.params, out)

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
    such as structure constants c^k_ij or connection coefficients A^k_ij."""
    comps = [x for row in nested for cell in row for x in cell]
    return Tensor(len(nested), "ddu", comps[0].params, comps)


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
    variance = "".join(t.variance[k] for k in keep)
    n = t.dim
    comps = []
    for out_idx in itertools.product(range(n), repeat=r - 2):
        idx = [0] * r
        for pos, k in enumerate(keep):
            idx[k] = out_idx[pos]
        acc = Scalar.zero(t.params)
        if metric is None:
            for p in range(n):
                idx[a] = idx[b] = p
                acc = acc + t.comps[t._offset(tuple(idx))]
        else:
            for p in range(n):
                for q in range(n):
                    m = metric[p][q]
                    if m.is_zero:
                        continue
                    idx[a], idx[b] = p, q
                    c = t.comps[t._offset(tuple(idx))]
                    if not c.is_zero:
                        acc = acc + m * c
        comps.append(acc)
    return Tensor(n, variance, t.params, comps)


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


def mat_mul(a: list, b: list) -> list:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for s in range(k):
                if a[i][s].is_zero or b[s][j].is_zero:
                    continue
                term = a[i][s] * b[s][j]
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else Scalar.zero(a[i][0].params))
        out.append(row)
    return out


def mat_eq(a: list, b: list) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_det(m: list) -> Scalar:
    n = len(m)
    work = [list(row) for row in m]
    params = m[0][0].params
    det = Scalar.one(params)
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero), None)
        if pivot is None:
            return Scalar.zero(params)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = Scalar.one(params) / work[col][col]
        for r in range(col + 1, n):
            if work[r][col].is_zero:
                continue
            factor = work[r][col] * inv
            for c in range(col, n):
                work[r][c] = work[r][c] - factor * work[col][c]
    return det


def mat_inv(m: list) -> list:
    n = len(m)
    params = m[0][0].params
    work = [list(row) + list(idrow) for row, idrow in zip(m, mat_identity(n, params))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
        inv = Scalar.one(params) / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r == col or work[r][col].is_zero:
                continue
            factor = work[r][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]
