"""Shared test utilities: independent oracles and random valid frames.

Oracles here work straight from structure constants with plain loops, so
they stay independent of the geometry code paths they are used to check.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

from rptgeo import (Connection, FrameAlgebra, Scalar, Tensor, build_example,
                    levi_civita, mat_identity, mat_inv, mat_mul, mat_transpose, null_space,
                    parse_expression)
from rptgeo.example import PARAM_NAMES, SYMMETRIES, _canonical, family_brackets
from rptgeo.frames import bracket_tensor
from rptgeo.geometry import nabla_p_components


def perm_sign(sigma) -> int:
    """The sign of a permutation of 0..k-1, from the parity of its cycles."""
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


def all_passed(results) -> bool:
    """Whether no check result failed."""
    return not any(r.status == "fail" for r in results)


def swap_product_matrix(dim: int, params: tuple) -> list:
    """Block antidiagonal product structure exchanging the two halves."""
    half = dim // 2
    one, zero = Scalar.one(params), Scalar.zero(params)
    return [[one if abs(i - j) == half else zero for j in range(dim)]
            for i in range(dim)]


def build_tensor(dim: int, variance: str, params: tuple, fn) -> Tensor:
    """The tensor whose component at each index tuple is fn(index)."""
    return Tensor(dim, variance, params,
                  [fn(idx) for idx in itertools.product(range(dim), repeat=len(variance))])


# ---------------------------------------------------------------------------
# vector/bracket arithmetic on component lists


def vec_zero(fa):
    return [Scalar.zero(fa.params) for _ in range(fa.dim)]


def basis_vec(fa, i):
    v = vec_zero(fa)
    v[i] = Scalar.one(fa.params)
    return v


def bracket_vec(fa, u, v):
    out = vec_zero(fa)
    for i in range(fa.dim):
        if u[i].is_zero:
            continue
        for j in range(fa.dim):
            if v[j].is_zero:
                continue
            for k in range(fa.dim):
                out[k] = out[k] + u[i] * v[j] * fa.c[i][j][k]
    return out


def apply_p(fa, v):
    return [sum((fa.p[i][j] * v[j] for j in range(fa.dim)),
                Scalar.zero(fa.params)) for i in range(fa.dim)]


def inner(fa, u, v):
    acc = Scalar.zero(fa.params)
    for i in range(fa.dim):
        for j in range(fa.dim):
            acc = acc + u[i] * fa.g[i][j] * v[j]
    return acc


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_scale(u, c):
    return [c * a for a in u]


# ---------------------------------------------------------------------------
# oracles


def jacobi_residual_oracle(fa, i, j, m):
    """The vector [[e_i,e_j],e_m] + [[e_j,e_m],e_i] + [[e_m,e_i],e_j]."""
    lhs = bracket_vec(fa, fa.c[i][j], basis_vec(fa, m))
    lhs = vec_add(lhs, bracket_vec(fa, fa.c[j][m], basis_vec(fa, i)))
    return vec_add(lhs, bracket_vec(fa, fa.c[m][i], basis_vec(fa, j)))


def jacobi_oracle(fa):
    """Triple-loop Jacobi residuals; list of (i, j, m) with nonzero residual."""
    return [(i, j, m) for i, j, m in itertools.product(range(fa.dim), repeat=3)
            if any(not x.is_zero for x in jacobi_residual_oracle(fa, i, j, m))]


def killing_oracle(fa):
    """Direct evaluation of the Killing pairing at every index triple."""
    bad = []
    for i in range(fa.dim):
        for j in range(fa.dim):
            for k in range(fa.dim):
                val = inner(fa, fa.c[i][j], apply_p(fa, basis_vec(fa, k))) \
                    + inner(fa, fa.c[i][k], apply_p(fa, basis_vec(fa, j)))
                if not val.is_zero:
                    bad.append((i, j, k))
    return bad


def koszul_killing_oracle(fa, i, j):
    """Connection value from the bracket shortcut valid under the Killing
    condition: twice the derivative is [x,y] + P[x,Py] - P[Px,y]."""
    ei, ej = basis_vec(fa, i), basis_vec(fa, j)
    total = bracket_vec(fa, ei, ej)
    total = vec_add(total, apply_p(fa, bracket_vec(fa, ei, apply_p(fa, ej))))
    total = vec_sub(total, apply_p(fa, bracket_vec(fa, apply_p(fa, ei), ej)))
    return vec_scale(total, Scalar.constant(fa.params, Fraction(1, 2)))


def nabla_p_killing_oracle(fa, i, j):
    """(nabla_i P) applied to e_j from the bracket shortcut: twice the value
    is [Px,y] - P[Px,Py]."""
    pei = apply_p(fa, basis_vec(fa, i))
    ej = basis_vec(fa, j)
    total = vec_sub(bracket_vec(fa, pei, ej),
                    apply_p(fa, bracket_vec(fa, pei, apply_p(fa, ej))))
    return vec_scale(total, Scalar.constant(fa.params, Fraction(1, 2)))


def metric_witness_oracle(conn):
    """(1-based index, value) for every i, j <= k where
    g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k) is nonzero."""
    fa = conn.frame
    n = fa.dim

    def nabla(i, j):
        return [conn.coeffs[i, j, s] for s in range(n)]

    out = []
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                val = inner(fa, nabla(i, j), basis_vec(fa, k)) \
                    + inner(fa, basis_vec(fa, j), nabla(i, k))
                if not val.is_zero:
                    out.append(((i + 1, j + 1, k + 1), val))
    return out


def covariant_derivative_oracle(conn, t: Tensor) -> Tensor:
    """Entry by entry: (nabla_i t)(e_j1, ..) is minus the sum over slots m
    and s of A^s_{i j_m} t(.., e_s in slot m, ..)."""
    fa = conn.frame
    n = fa.dim
    comps = []
    for idx in itertools.product(range(n), repeat=t.rank + 1):
        i, rest = idx[0], idx[1:]
        acc = Scalar.zero(fa.params)
        for m in range(t.rank):
            for s in range(n):
                coef = conn.coeffs[i, rest[m], s]
                if not coef.is_zero:
                    acc = acc - coef * t[rest[:m] + (s,) + rest[m + 1:]]
        comps.append(acc)
    return Tensor(n, "d" * (t.rank + 1), fa.params, comps)


def curvature_oracle(conn) -> Tensor:
    """Entry by entry: R(e_i, e_j, e_k, e_l) is g(nabla_i nabla_j e_k -
    nabla_j nabla_i e_k - nabla_[e_i,e_j] e_k, e_l), from the connection
    coefficients and the structure constants."""
    fa = conn.frame
    n = fa.dim

    def nabla(u, v):
        # frame components are constant, so nabla_u v = u_m v_j A^s_mj e_s
        out = vec_zero(fa)
        for m, j in itertools.product(range(n), repeat=2):
            if u[m].is_zero or v[j].is_zero:
                continue
            out = vec_add(out, vec_scale([conn.coeffs[m, j, s] for s in range(n)],
                                         u[m] * v[j]))
        return out

    comps = []
    for i, j, k in itertools.product(range(n), repeat=3):
        ei, ej, ek = basis_vec(fa, i), basis_vec(fa, j), basis_vec(fa, k)
        r = vec_sub(vec_sub(nabla(ei, nabla(ej, ek)), nabla(ej, nabla(ei, ek))),
                    nabla(fa.c[i][j], ek))
        comps += [inner(fa, r, basis_vec(fa, l)) for l in range(n)]
    return Tensor(n, "dddd", fa.params, comps)


def torsion_products_oracle(t: Tensor, fa) -> Tensor:
    """Entry by entry: b(e_i, e_j, e_k, e_l) = g(T(e_i, e_j), T(e_k, e_l)),
    pairing the raised torsion vector of (e_i, e_j) with the lowered
    torsion of (e_k, e_l)."""
    n = fa.dim
    ginv = mat_inv(fa.g)
    zero = Scalar.zero(fa.params)
    # the vector T(e_i, e_j) has component a equal to sum_c t[i, j, c] g^ca
    vecs = {}
    for i, j in itertools.product(range(n), repeat=2):
        vecs[i, j] = [sum((t[i, j, c] * ginv[c][a] for c in range(n)), zero)
                      for a in range(n)]
    comps = [sum((vecs[i, j][a] * t[k, l, a] for a in range(n)), zero)
             for i, j, k, l in itertools.product(range(n), repeat=4)]
    return Tensor(n, "dddd", fa.params, comps)


def cyclic_sum_oracle(t: Tensor, slots):
    """Brute-force cyclic sum by explicit index rewriting."""
    s1, s2, s3 = slots
    out = []
    for idx in t.indices():
        idx2 = list(idx)
        idx2[s1], idx2[s2], idx2[s3] = idx[s2], idx[s3], idx[s1]
        idx3 = list(idx)
        idx3[s1], idx3[s2], idx3[s3] = idx[s3], idx[s1], idx[s2]
        out.append(t[idx] + t[tuple(idx2)] + t[tuple(idx3)])
    return Tensor(t.dim, t.variance, t.params, out)


def map_slot_oracle(t: Tensor, matrix: list, slot: int) -> Tensor:
    """Dense loop, entry by entry: the component at idx is the sum over a of
    M^i_a t(.., e_a in slot, ..) with i = idx[slot], reading matrix[i][a]
    on a vector slot and matrix[a][i] on a covector slot."""
    up = t.variance[slot] == "u"
    out = []
    for idx in t.indices():
        i = idx[slot]
        acc = Scalar.zero(t.params)
        for a in range(t.dim):
            m = matrix[i][a] if up else matrix[a][i]
            acc = acc + m * t[idx[:slot] + (a,) + idx[slot + 1:]]
        out.append(acc)
    return Tensor(t.dim, t.variance, t.params, out)


def change_of_basis_oracle(t: Tensor, s: list, s_inv: list) -> Tensor:
    """Index loop: t in the basis of the columns of s.  The component at idx
    is the sum over every index tuple a of t(a) times, slot by slot,
    s[a_k][idx_k] on a covector slot and s_inv[idx_k][a_k] on a vector slot."""
    def entry(idx):
        acc = Scalar.zero(t.params)
        for a in t.indices():
            term = t[a]
            if term.is_zero:
                continue
            for v, i, j in zip(t.variance, idx, a):
                term = term * (s[j][i] if v == "d" else s_inv[i][j])
            acc = acc + term
        return acc

    return build_tensor(t.dim, t.variance, t.params, entry)


def mat_mul_oracle(a: list, b: list, params: tuple) -> list:
    """Index loop: entry (i, j) is the sum over s of a[i][s] b[s][j]."""
    width = len(b[0]) if b else 0
    return [[sum((a[i][s] * b[s][j] for s in range(len(b))), Scalar.zero(params))
             for j in range(width)] for i in range(len(a))]


def row_reduce_oracle(m: list):
    """Textbook Gauss-Jordan on plain Fractions, with the pivot rule of
    ``row_reduce`` (the first nonzero entry at or below the next pivot row):
    (rref, pivots, values, swaps) as Fractions."""
    work = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(work), len(work[0]) if work else 0
    pivots, values, swaps = [], [], 0
    for col in range(cols):
        r = len(pivots)
        found = [k for k in range(r, rows) if work[k][col] != 0]
        if not found:
            continue
        if found[0] != r:
            work[r], work[found[0]] = work[found[0]], work[r]
            swaps += 1
        value = work[r][col]
        work[r] = [x / value for x in work[r]]
        for k in range(rows):
            if k != r:
                factor = work[k][col]
                work[k] = [x - factor * y for x, y in zip(work[k], work[r])]
        pivots.append(col)
        values.append(value)
    return work, pivots, values, swaps


def eigenbasis_oracle(fa) -> list:
    """Rows of the eigenbasis that ``frames._eigenbasis`` gives: for a
    constant P the columns of I+P and then of I-P at the pivot columns the
    Fraction oracle finds; else the ``null_space`` basis of the Scalar rows
    of I-P and then of I+P."""
    n, params = fa.dim, fa.params
    ident = mat_identity(n, params)
    columns = []
    for sign in (1, -1):
        if all(x.is_constant for row in fa.p for x in row):
            proj = [[int(i == j) + sign * x.value for j, x in enumerate(row)]
                    for i, row in enumerate(fa.p)]
            columns += [[Scalar.constant(params, proj[i][col]) for i in range(n)]
                        for col in row_reduce_oracle(proj)[1]]
        else:
            columns += null_space([[e - sign * x for e, x in zip(erow, row)]
                                   for erow, row in zip(ident, fa.p)])
    return mat_transpose(columns)


def compose_oracle(a: Tensor, b: Tensor) -> Tensor:
    """Index loop: the component at (idx_a, idx_b) is the sum over s of
    a(idx_a, s) b(s, idx_b)."""
    n = a.dim
    comps = []
    for left in itertools.product(range(n), repeat=a.rank - 1):
        for right in itertools.product(range(n), repeat=b.rank - 1):
            comps.append(sum((a[left + (s,)] * b[(s,) + right] for s in range(n)),
                             Scalar.zero(a.params)))
    return Tensor(n, a.variance[:-1] + b.variance[1:], a.params, comps)


def elementwise_oracle(fn, *tensors) -> Tensor:
    """Index loop: the component at idx is fn of the operands' components
    there, in Scalar arithmetic."""
    t = tensors[0]
    return build_tensor(t.dim, t.variance, t.params,
                        lambda idx: fn(*(s[idx] for s in tensors)))


def alternate(t: Tensor, slots) -> Tensor:
    """Full antisymmetrization over the given slots, normalized by 1/k!."""
    slots = list(slots)
    if len(set(slots)) != len(slots):
        raise ValueError("alternation slots must be distinct")
    if len({t.variance[s] for s in slots}) != 1:
        raise ValueError("alternation slots must have equal variance")
    total = None
    for sigma in itertools.permutations(range(len(slots))):
        sign = perm_sign(sigma)
        perm = list(range(t.rank))
        for pos, s in enumerate(slots):
            perm[s] = slots[sigma[pos]]
        term = t.transpose(perm)
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total.scale(Fraction(1, factorial(len(slots))))


def transpose_oracle(t: Tensor, perm) -> Tensor:
    """Index loop: N(idx) = t(idx[perm[0]], ..); input slot k becomes output
    slot perm[k]."""
    variance = [""] * t.rank
    for k, p in enumerate(perm):
        variance[p] = t.variance[k]
    return build_tensor(t.dim, "".join(variance), t.params,
                        lambda idx: t[tuple(idx[p] for p in perm)])


def slot_change_oracle(t: Tensor, matrix: list, slot: int) -> Tensor:
    """lower_slot / raise_slot by index loop: map_slot_oracle with the slot's
    variance flipped."""
    out = map_slot_oracle(t, matrix, slot)
    flipped = "d" if t.variance[slot] == "u" else "u"
    return Tensor(t.dim, t.variance[:slot] + flipped + t.variance[slot + 1:],
                  t.params, out.comps)


def contract_oracle(t: Tensor, slot_a: int, slot_b: int, metric=None) -> Tensor:
    """Index loop: at each index of the kept slots, the sum over p, q of
    metric[p][q] t(.., p at slot_a, .., q at slot_b, ..), or over p = q when
    no metric is given."""
    n, keep = t.dim, [k for k in range(t.rank) if k not in (slot_a, slot_b)]

    def entry(rest):
        acc = Scalar.zero(t.params)
        for p, q in itertools.product(range(n), repeat=2):
            if metric is None and p != q:
                continue
            idx = [0] * t.rank
            for k, v in zip(keep, rest):
                idx[k] = v
            idx[slot_a], idx[slot_b] = p, q
            term = t[tuple(idx)]
            acc = acc + (term if metric is None else metric[p][q] * term)
        return acc

    return build_tensor(n, "".join(t.variance[k] for k in keep), t.params, entry)


def arranged_oracle(t: Tensor, pattern: str, p: list) -> Tensor:
    """Index loop for a covariant t: S(x, y, ..) = t(pattern), where an
    argument Pv is sum over a of P[a][v] e_a."""
    specs = [s.strip() for s in pattern.split(",")]
    one = Scalar.one(t.params)

    def entry(idx):
        choices = []
        for spec in specs:
            v = idx["xyzw".index(spec[-1])]
            choices.append([(p[a][v], a) for a in range(t.dim)]
                           if spec.startswith("P") else [(one, v)])
        acc = Scalar.zero(t.params)
        for combo in itertools.product(*choices):
            weight = one
            for factor, _ in combo:
                weight = weight * factor
            acc = acc + weight * t[tuple(a for _, a in combo)]
        return acc

    return build_tensor(t.dim, t.variance, t.params, entry)


# ---------------------------------------------------------------------------
# polynomial dicts: packed exponents (parameter i's exponent in bits
# [64 i, 64 i + 64) of one int), and the kernel on exponent tuples as a
# reference


def golden_table_oracle(path: Path, variance: str) -> Tensor:
    """A golden table file expanded over all 4^rank indices: each index read
    off the listed entry at its representative under the table's symmetry
    (``example._canonical``), signed by the parity of the sort."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    rank = len(variance)
    groups = tuple(tuple(s for s in group if s < rank)
                   for group in SYMMETRIES[data.get("symmetry", "none")])
    listed = {}
    for key, text in data["entries"].items():
        idx, sign = _canonical(groups, tuple(int(part) for part in key.split(",")))
        if idx is not None:
            value = parse_expression(text, PARAM_NAMES)
            listed[idx] = value if sign > 0 else -value
    zero, comps = Scalar.zero(PARAM_NAMES), []
    for idx in itertools.product(range(1, 5), repeat=rank):
        key, sign = _canonical(groups, idx)
        value = listed.get(key, zero)
        comps.append(value if sign > 0 else -value)
    return Tensor(4, variance, PARAM_NAMES, comps)


def pack(expo) -> int:
    """The packed exponent of an exponent tuple."""
    return sum(k << (64 * i) for i, k in enumerate(expo))


def packed(poly: dict) -> dict:
    """A polynomial keyed by exponent tuples, keyed by packed exponents."""
    return {pack(e): c for e, c in poly.items()}


def unpacked(poly: dict, nvars: int) -> dict:
    """A polynomial keyed by packed exponents, keyed by exponent tuples."""
    return {tuple((e >> (64 * i)) & (2 ** 64 - 1) for i in range(nvars)): c
            for e, c in poly.items()}


def _grlex(expo: tuple) -> tuple:
    return (sum(expo), expo)


def tuple_mul(a: dict, b: dict) -> dict:
    """Reference product of two polynomials keyed by exponent tuples."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(operator.add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def tuple_divexact(f: dict, d: dict) -> dict:
    """Reference f / d on exponent tuples for a primitive d: peels leading
    terms under graded-lex order, ArithmeticError when d does not divide f."""
    lead_d = max(d, key=_grlex)
    quo, rem = {}, dict(f)
    while rem:
        lead = max(rem, key=_grlex)
        qe = tuple(map(operator.sub, lead, lead_d))
        qc, r = divmod(rem[lead], d[lead_d])
        if r or min(qe, default=0) < 0:
            raise ArithmeticError("inexact polynomial division")
        quo[qe] = qc
        for e, c in d.items():
            e = tuple(map(operator.add, e, qe))
            rem[e] = rem.get(e, 0) - qc * c
            if not rem[e]:
                del rem[e]
    return quo


def dict_eval(a: dict, vec: list) -> Fraction:
    """The polynomial dict a (packed exponents) at the point vec, one
    Fraction per parameter, summed monomial by monomial in Fractions."""
    total = Fraction(0)
    for e, c in unpacked(a, len(vec)).items():
        m = c
        for val, k in zip(vec, e):
            if k:
                m *= val ** k
        total += m
    return total


def substitute_oracle(t: Tensor, values) -> Tensor:
    """Index loop: each component's num and den evaluated in Fractions by
    ``dict_eval``, in the empty context; ZeroDivisionError, with the
    kernel's message, where a component's den vanishes."""
    vec = [Fraction(values[name]) for name in t.params]

    def entry(idx):
        s = t[idx]
        den = dict_eval(s.den, vec)
        if not den:
            raise ZeroDivisionError("denominator vanishes at the given values")
        return Scalar.constant((), dict_eval(s.num, vec) / den)

    return build_tensor(t.dim, t.variance, (), entry)


_PERMS3 =[((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
           ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]


def projection_oracle(t: Tensor, fa):
    """Independent transcription of the four torsion projections, computed
    entry by entry with explicit argument substitution."""
    n = fa.dim
    params = fa.params

    def tv(u, v, w):
        acc = Scalar.zero(params)
        for a in range(n):
            if u[a].is_zero:
                continue
            for b in range(n):
                if v[b].is_zero:
                    continue
                for c in range(n):
                    if not w[c].is_zero:
                        acc = acc + u[a] * v[b] * w[c] * t[a, b, c]
        return acc

    eighth = Scalar.constant(params, Fraction(1, 8))
    quarter = Scalar.constant(params, Fraction(1, 4))
    comps = [[], [], [], []]
    for idx in Tensor.zeros(n, "ddd", params).indices():
        x, y, z = (basis_vec(fa, k) for k in idx)
        px, py, pz = apply_p(fa, x), apply_p(fa, y), apply_p(fa, z)
        two = Scalar.constant(params, 2)
        p1 = eighth * (two * tv(x, y, z) - tv(y, z, x) - tv(z, x, y)
                       - tv(pz, x, py) + tv(py, z, px) + tv(z, px, py)
                       - two * tv(px, py, z) + tv(py, pz, x) + tv(pz, px, y)
                       - tv(y, pz, px))
        p2 = eighth * (two * tv(x, y, z) + tv(y, z, x) + tv(z, x, y)
                       + tv(pz, x, py) - tv(py, z, px) - tv(z, px, py)
                       - two * tv(px, py, z) - tv(py, pz, x) - tv(pz, px, y)
                       + tv(y, pz, px))
        p3 = quarter * (tv(x, y, z) + tv(px, py, z) - tv(px, y, pz)
                        - tv(x, py, pz))
        p4 = quarter * (tv(x, y, z) + tv(px, py, z) + tv(px, y, pz)
                        + tv(x, py, pz))
        for pos, val in enumerate((p1, p2, p3, p4)):
            comps[pos].append(val)
    return tuple(Tensor(n, "ddd", params, comps[pos]) for pos in range(4))


# ---------------------------------------------------------------------------
# random valid frames (Jacobi-satisfying by construction)


def conjugate(fa: FrameAlgebra, s: list) -> FrameAlgebra:
    """Change of basis by an invertible matrix whose columns are the new
    basis vectors; preserves Jacobi, compatibility and class membership."""
    n = fa.dim
    s_inv = mat_inv(s)
    g2 = mat_mul(mat_transpose(s), mat_mul(fa.g, s))
    p2 = mat_mul(s_inv, mat_mul(fa.p, s))
    zero = Scalar.zero(fa.params)
    c2 = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            new_i = [s[a][i] for a in range(n)]
            new_j = [s[a][j] for a in range(n)]
            br = bracket_vec(fa, new_i, new_j)
            comps = [sum((s_inv[k][m] * br[m] for m in range(n)), zero)
                     for k in range(n)]
            for k in range(n):
                c2[i][j][k] = comps[k]
                c2[j][i][k] = -comps[k]
    return FrameAlgebra(n, fa.params, c2, g2, p2)


def direct_sum(fa1: FrameAlgebra, fa2: FrameAlgebra) -> FrameAlgebra:
    if fa1.params != fa2.params:
        raise ValueError("direct sum needs a common parameter context")
    n1, n2 = fa1.dim, fa2.dim
    n = n1 + n2
    params = fa1.params
    zero = Scalar.zero(params)
    c = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
    g = [[zero for _ in range(n)] for _ in range(n)]
    p = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            g[i][j] = fa1.g[i][j]
            p[i][j] = fa1.p[i][j]
            for k in range(n1):
                c[i][j][k] = fa1.c[i][j][k]
    for i in range(n2):
        for j in range(n2):
            g[n1 + i][n1 + j] = fa2.g[i][j]
            p[n1 + i][n1 + j] = fa2.p[i][j]
            for k in range(n2):
                c[n1 + i][n1 + j][n1 + k] = fa2.c[i][j][k]
    return FrameAlgebra(n, params, c, g, p)


def random_unimodular(rng: random.Random, dim: int, params: tuple) -> list:
    """Product of unit triangular matrices: always invertible, small entries."""
    lower = mat_identity(dim, params)
    upper = mat_identity(dim, params)
    for i in range(dim):
        for j in range(dim):
            if i > j and rng.random() < 0.4:
                lower[i][j] = Scalar.constant(params, rng.choice((-1, 1)))
            if i < j and rng.random() < 0.4:
                upper[i][j] = Scalar.constant(params, rng.choice((-1, 1)))
    return mat_mul(lower, upper)


def random_lambdas(rng: random.Random):
    return tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                 for _ in range(4))


def family_frame(lam, params: tuple) -> FrameAlgebra:
    """The family at four Scalars of the context params."""
    return FrameAlgebra(4, params, family_brackets(lam, params), mat_identity(4, params),
                        swap_product_matrix(4, params))


def symbolic_metric_frame() -> FrameAlgebra:
    """Family instance conjugated by a parametric matrix: the metric inverse
    has genuine polynomial denominators, exercising the rational core."""
    params5 = ("l1", "l2", "l3", "l4", "a")
    shear = mat_identity(4, params5)
    a = Scalar.parameter(params5, "a")
    shear[0][0] = Scalar.one(params5) + a
    shear[0][1] = a
    return conjugate(family_frame([Scalar.parameter(params5, n) for n in params5[:4]],
                                  params5), shear)


def sheared_family_frame() -> FrameAlgebra:
    """The symbolic family conjugated by the unimodular shear e2 -> e2 + a e1:
    brackets, metric and product are polynomial in (l1..l4, a), so a spec
    file can hold it, and P depends on the parameter a."""
    params5 = ("l1", "l2", "l3", "l4", "a")
    shear = mat_identity(4, params5)
    shear[0][1] = Scalar.parameter(params5, "a")
    return conjugate(family_frame([Scalar.parameter(params5, n) for n in params5[:4]],
                                  params5), shear)


def scaled_family_frame() -> FrameAlgebra:
    """The family at (1/2, 1, 3/2, 5/2) in the basis (1 + a*b)*S, S unimodular:
    brackets and metric stay polynomial in (a, b), the metric inverse is a
    true rational function, and F has rational coefficients."""
    params = ("a", "b")
    fa = family_frame([Scalar.constant(params, Fraction(k, 2)) for k in (1, 2, 3, 5)], params)
    a, b = (Scalar.parameter(params, name) for name in params)
    factor = 1 + a * b
    s = random_unimodular(random.Random(4), 4, params)
    return conjugate(fa, [[factor * x for x in row] for row in s])


def extended_family_frame(l1, l2, l3, l4, s, params: tuple) -> FrameAlgebra:
    """The 5-parameter W3 frame through the family (g = I, P = the block
    swap) at Scalars of the context params: the family at s = 0, on the
    W3 and Jacobi variety for every s."""
    m = l2 + l4 * s
    return FrameAlgebra(4, params, bracket_tensor(4, params, {
        (0, 1): {0: l1, 1: m, 2: l1 * s, 3: s * m},
        (0, 2): {1: l3 - l1 * s, 3: l3 * s - l1},
        (0, 3): {0: -l3, 1: -(s * m), 2: -(l3 * s), 3: -m},
        (1, 2): {0: l1 * s, 1: l4, 2: l1, 3: l4 * s},
        (1, 3): {0: s * m - l4, 2: l2},
        (2, 3): {0: l3 * s, 1: l4 * s, 2: l3, 3: l4}}),
        mat_identity(4, params), swap_product_matrix(4, params))


def random_frames(count: int = 20, seed: int = 1404):
    """Deterministic battery of valid frames: conjugated family instances,
    direct sums, one parametric-metric conjugate and one parallel (W0) frame."""
    rng = random.Random(seed)
    frames = [symbolic_metric_frame(), build_example((0, 0, 0, 0))]
    # fixed kind mix keeps the runtime predictable: mostly 4-dim conjugates,
    # a few 8-dim block sums, two dense 8-dim conjugates
    kinds = ["plain", "plain"] + ["conj4"] * 10 + ["sum8"] * 4 + ["conj8"] * 2
    for kind in kinds[:max(0, count - len(frames))]:
        base = build_example(random_lambdas(rng))
        if kind == "plain":
            fa = base
        elif kind == "conj4":
            fa = conjugate(base, random_unimodular(rng, 4, ()))
        elif kind == "sum8":
            fa = direct_sum(base, build_example(random_lambdas(rng)))
        else:
            fa = conjugate(direct_sum(base, build_example(random_lambdas(rng))),
                           random_unimodular(rng, 8, ()))
        frames.append(fa)
    return frames


def abelian_plane(params: tuple = ()) -> FrameAlgebra:
    """Abelian 2-dim frame with identity metric and swap product (class W0)."""
    return FrameAlgebra(2, params, bracket_tensor(2, params, {}), mat_identity(2, params),
                        swap_product_matrix(2, params))


def six_dim_frame() -> FrameAlgebra:
    """The family at (1, 2, 3, 5) plus the abelian plane, in a dense basis."""
    base = direct_sum(build_example((1, 2, 3, 5)), abelian_plane())
    return conjugate(base, random_unimodular(random.Random(6), 6, ()))


def single_bracket_frame() -> FrameAlgebra:
    """Valid frame outside the skew-cyclic class: one bracket, identity
    metric, block-swap product."""
    return FrameAlgebra(4, (), bracket_tensor(4, (), {(0, 1): {2: Scalar.one(())}}),
                        mat_identity(4, ()), swap_product_matrix(4, ()))


# ---------------------------------------------------------------------------
# the paper's existence system


def three_form(n: int, params: tuple, coeffs: dict) -> Tensor:
    """The 3-form with coefficient coeffs[(i, j, k)], a Scalar, on e^ijk
    for i < j < k, and 0 on the triples coeffs leaves out."""
    comps = [Scalar.zero(params)] * n ** 3
    for triple, value in coeffs.items():
        for sigma in itertools.permutations(range(3)):
            i, j, k = (triple[s] for s in sigma)
            comps[(i * n + j) * n + k] = value * perm_sign(sigma)
    return Tensor(n, "ddd", params, comps)


def existence_system(fa: FrameAlgebra):
    """The linear system for the torsion T of a natural connection with
    totally skew torsion on fa, as (rows, triples): rows are the nonzero rows
    of [A | -b], and the unknowns are the coefficients of T on the basis
    3-forms e_u = e^ijk, one per triple (i, j, k) with i < j < k.

    Column u is nabla P under Connection(fa, e_u / 2), the connection with
    g(nabla_x y, z) = e_u(x, y, z) / 2, and -b is nabla P under Levi-Civita.
    nabla P is linear in the connection, so A x = b says that
    nabla' = nabla + T / 2, a sum of lowered forms, keeps P parallel; being a
    3-form, T keeps it metric with torsion T.  The solutions are the null
    vectors (x, 1) of [A | -b]."""
    n, params = fa.dim, fa.params
    triples = list(itertools.combinations(range(n), 3))
    half = Scalar.constant(params, Fraction(1, 2))
    columns = []
    for triple in triples:
        conn = Connection(fa, three_form(n, params, {triple: half}))
        columns.append(nabla_p_components(fa, conn).comps)
    columns.append(nabla_p_components(fa, levi_civita(fa)).comps)
    rows = [list(row) for row in zip(*columns) if any(row)]
    return rows, triples
